"""Workload inputs, job execution and output checks for the rotwave benchmark.

A workload is a fixed list of jobs (one *round*) generated from the seed; a
run repeats the round until its time is up. Every job is deterministic, so a
rerun of a job must reproduce the first run's outputs bit for bit.

The timed part of a job calls only rotwave's public functions, looked up
through the module objects at call time so that the tracer's wrappers apply.
The checks run outside the timed part and never raise: a violated check
marks the job as failed.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = ("case1", "case2", "case3", "example4", "example5")

#: (resonance kind, k, motion label) that every family shows across the
#: whole lambda range of the sweep
EXPECTED_LABELS = {
    "case1": ("NonResonant", None, "MeanderO1"),
    "case2": ("Resonant", 1, "OrthogonalDrift"),
    "case3": ("Resonant", 1, "SlowMeanderAboutX0"),
    "example4": ("Resonant", 1, "SlowMeanderAboutX0"),
    "example5": ("NonResonant", None, "MeanderO1"),
}

LAM_LO, LAM_HI = 1e-4, 1e-1

#: sqrt(lambda) range of the drift root-finds, inside the default bracket
#: (0, 0.3) with a 10% margin so that the objective changes sign clearly
SQRT_LAM_ROOT = (0.01, 0.27)
MU_BRACKET = (0.0, 0.3)

SWEEP_PERIODS = 10
SAMPLE_PERIODS = 2
SAMPLES_PER_JOB = 500

#: tolerances of the acceptance criteria: closed-form reproduction (3),
#: circle fits (7), the drift branch (9) and the composition defect (1)
ERR_TOL = 1e-7
CIRCLE_RMS_TOL = 1e-6
MU_TOL = 1e-6
BCH_TOL = 1e-10


@dataclass(frozen=True)
class Job:
    """One unit of work; ``id`` is its position in the round."""

    id: int
    kind: str
    family: str = ""
    lam: float = 0.0
    #: sample times as multiples of the relative period (``sample`` jobs)
    times: tuple = ()
    #: arguments after ``rotwave``; ``{out}`` stands for the output directory
    argv: tuple = ()


@dataclass
class Outcome:
    """Result of checking one job execution."""

    ok: bool
    err: float = 0.0
    why: str = ""


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw in each of k equal log-width strata of [lo, hi].

    Stratifying keeps the mix of cheap and expensive lambdas, and therefore
    the work in a round, nearly the same from seed to seed.
    """
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / k) for i in range(k)]


def _family_lambdas(rng: random.Random) -> list[float]:
    # both ends of the range in every round: the largest error of every
    # family sits at LAM_HI, so max_err does not hinge on the seed's draws
    return [LAM_LO, *_strata(rng, 2, LAM_LO, LAM_HI), LAM_HI]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The round of jobs for ``workload``; a function of the seed alone."""
    rng = random.Random(f"rotwave-bench:{workload}:{seed}")
    if workload == "sweep":
        specs = [("group", fam, lam, ()) for fam in FAMILIES for lam in _family_lambdas(rng)]
        specs += [
            ("root", "example4", s * s, ())
            for s in _strata(rng, 3, *SQRT_LAM_ROOT)
        ]
        rng.shuffle(specs)
        return [Job(i, kind, fam, lam) for i, (kind, fam, lam, _) in enumerate(specs)]
    if workload == "sample":
        specs = []
        n = SAMPLES_PER_JOB
        for fam in FAMILIES:
            for lam in _family_lambdas(rng):
                # a jittered grid: even coverage finds the narrow error peaks
                # between steps, so max_err varies little from seed to seed
                times = tuple(SAMPLE_PERIODS * (i + rng.random()) / n for i in range(n))
                specs.append((fam, lam, times))
        rng.shuffle(specs)
        return [Job(i, "sample", fam, lam, times) for i, (fam, lam, times) in enumerate(specs)]
    if workload == "cli":
        return _cli_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_jobs(rng: random.Random) -> list[Job]:
    """The README subcommands with seeded arguments, in README order."""
    vecs = [repr(rng.uniform(-2.0, 2.0)) for _ in range(6)]
    lam_dump = _log_uniform(rng, LAM_LO, LAM_HI)
    lam_verify = _log_uniform(rng, LAM_LO, LAM_HI)
    lam_freq = sorted(_strata(rng, 2, LAM_LO, LAM_HI))
    s = _log_uniform(rng, *SQRT_LAM_ROOT)
    lam_drift = s * s
    lam_sim = _log_uniform(rng, LAM_LO, LAM_HI)
    grid = lambda lams: ",".join(repr(x) for x in lams)
    return [
        Job(0, "simulate", "case1", lam_sim, argv=(
            "simulate", "--scenario", "case1", "--lambda-grid", grid([lam_sim, LAM_HI]),
            "--horizon", "2", "--out", "{out}",
        )),
        Job(1, "frequency", "case2", lam_freq[0], argv=(
            "frequency", "--scenario", "case2", "--lambda-grid", grid(lam_freq),
        )),
        Job(2, "drift", "example4", lam_drift, argv=(
            "drift", "--scenario", "example4", "--lambda", repr(lam_drift),
        )),
        Job(3, "bch", argv=("bch", *vecs, "--check")),
        Job(4, "verify", "example3", lam_verify, argv=(
            "verify", "--scenario", "example3", "--lambda", repr(lam_verify),
        )),
        Job(5, "dump_config", "case1", lam_dump, argv=(
            "simulate", "--scenario", "case1", "--lambda", repr(lam_dump), "--dump-config",
        )),
    ]


# ------------------------------------------------------------ reference math

def _rodrigues(v) -> np.ndarray:
    """exp(hat(v)), written here so that checks do not trust rotwave's kernel."""
    v = np.asarray(v, dtype=float)
    th = math.sqrt(float(v @ v))
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    if th < 1e-8:
        return np.eye(3) + k + 0.5 * (k @ k)
    return np.eye(3) + (math.sin(th) / th) * k + ((1.0 - math.cos(th)) / th**2) * (k @ k)


def _frob(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def fingerprint(out: dict) -> str:
    """Digest of a job's outputs (arrays by their exact bytes)."""
    h = hashlib.sha256()
    for key in sorted(out):
        val = out[key]
        if key == "traj":
            continue
        h.update(key.encode())
        if isinstance(val, (bytes, str)):
            h.update(val.encode() if isinstance(val, str) else val)
        elif isinstance(val, dict):
            for name in sorted(val):
                h.update(name.encode())
                h.update(val[name])
        else:
            h.update(np.ascontiguousarray(np.asarray(val, dtype=float)).tobytes())
    return h.hexdigest()


def _labels(report) -> tuple:
    motion = None if report.motion is None else report.motion.value
    return (report.resonance.kind.value, report.resonance.k, motion)


# ------------------------------------------------------ in-process workloads

class Runner:
    """Runs ``group``, ``root`` and ``sample`` jobs against the imported rotwave.

    Submodules are reached through ``sys.modules`` because ``rotwave.bch``
    names the function, not the module.
    """

    def __init__(self):
        mods = sys.modules
        self.flow = mods["rotwave.flow"]
        self.hopf = mods["rotwave.hopf"]
        self.tip = mods["rotwave.tip"]
        self.scenarios = mods["rotwave.scenarios"]
        self.sc = {fam: self.scenarios.build(fam) for fam in FAMILIES}

    def run(self, job: Job) -> dict:
        if job.kind == "root":
            sc = self.sc[job.family]
            mu = self.hopf.find_orthogonal_branch(sc.forcing_family, job.lam, MU_BRACKET, sc.X0)
            return {"mu": [mu]}
        periods = SWEEP_PERIODS if job.kind == "group" else SAMPLE_PERIODS
        flow, hopf, tip = self.flow, self.hopf, self.tip
        sc, lam = self.sc[job.family], job.lam
        T = sc.period(lam)
        traj = flow.integrate_group(sc.forcing(lam), lam, periods * T, ref_dir=sc.frame.x0_dir)
        X = hopf.primary_frequency(traj, T)
        report = hopf.classify(sc.X0, sc.omega_bif, X, T, lam)
        out = {}
        if job.kind == "group":
            times = [i * T for i in range(periods + 1)]
            track = tip.tip_trajectory(traj, sc.tip_x0, sc.r, times[:1], period=T)
            out["tip"] = track.period_samples
        else:
            times = [u * T for u in job.times]
            track = tip.tip_trajectory(traj, sc.tip_x0, sc.r, times, period=T)
            out["tip"] = track.points
            part = hopf.periodic_part(traj, X, report.Xf, T)
            out["log_bf"] = [part.log_Bf(t) for t in times]
        fit = tip.fit_circle(track.period_samples, ref_axis=X / np.linalg.norm(X))
        out.update(
            traj=traj,
            times=times,
            A=[traj.eval_A(t) for t in times],
            A_closed=[sc.closed_form(t, lam) for t in times],
            fit=[fit.rms_residual, fit.radius, *fit.axis],
            X=X,
            Xf=report.Xf,
            labels=repr(_labels(report)),
        )
        return out

    def check(self, job: Job, out: dict) -> Outcome:
        if job.kind == "root":
            dev = abs(out["mu"][0] - math.sqrt(job.lam))
            if not dev < MU_TOL:
                return Outcome(False, 0.0, f"|mu* - sqrt(lambda)| = {dev:.3e}")
            return Outcome(True)
        sc = self.sc[job.family]
        err = max(_frob(a, c) for a, c in zip(out["A"], out["A_closed"]))
        if not err < ERR_TOL:
            return Outcome(False, err, f"max |A - A_closed|_F = {err:.3e}")
        want = EXPECTED_LABELS[job.family]
        if out["labels"] != repr(want):
            return Outcome(False, err, f"labels {out['labels']} != {want}")
        tip_err = max(_frob(p, c @ sc.tip_x0) for p, c in zip(out["tip"], out["A_closed"]))
        if not tip_err < ERR_TOL * sc.r:
            return Outcome(False, err, f"tip deviates by {tip_err:.3e}")
        if job.kind == "group":
            # three period samples of a sample job always fit a plane
            if not out["fit"][0] < CIRCLE_RMS_TOL * sc.r:
                return Outcome(False, err, f"circle fit rms {out['fit'][0]:.3e}")
            return Outcome(True, err)
        # A = exp(Xf t) B^f(t), with log B^f as returned
        xf = out["Xf"]
        bf_err = max(
            _frob(_rodrigues(xf * t) @ _rodrigues(lb), c)
            for t, lb, c in zip(out["times"], out["log_bf"], out["A_closed"])
        )
        if not bf_err < ERR_TOL:
            return Outcome(False, err, f"periodic part deviates by {bf_err:.3e}")
        return Outcome(True, err)


# ---------------------------------------------------------------- cli jobs

@dataclass
class CliRun:
    seconds: float  # subprocess wall time, or in-process main time
    rc: int
    stdout: str
    stderr: str
    files: dict  # name -> bytes


def _argv(job: Job, out_dir: Path) -> list[str]:
    return [str(out_dir) if a == "{out}" else a for a in job.argv]


def _collect(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _clear(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for p in out_dir.iterdir():
        if p.is_file():
            p.unlink()


def run_cli_subprocess(job: Job, out_dir: Path, env: dict) -> CliRun:
    """Run ``python -m rotwave.cli`` in a fresh interpreter."""
    _clear(out_dir)
    cmd = [sys.executable, "-m", "rotwave.cli", *_argv(job, out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=out_dir, timeout=150
    )
    wall = time.perf_counter() - t0
    return CliRun(wall, proc.returncode, proc.stdout, proc.stderr, _collect(out_dir))


def run_cli_inprocess(job: Job, out_dir: Path, main) -> CliRun:
    """Call ``rotwave.cli.main(argv)`` in this process."""
    _clear(out_dir)
    argv = _argv(job, out_dir)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(argv)
        dt = time.perf_counter() - t0
    return CliRun(dt, rc, out.getvalue(), err.getvalue(), _collect(out_dir))


def cli_fingerprint(run: CliRun, out_dir: Path) -> str:
    """Digest of what a cli job produced, with the output path made neutral."""
    stdout = run.stdout.replace(str(out_dir), "{out}")
    return fingerprint({"stdout": stdout, "files": run.files})


def check_cli(job: Job, run: CliRun, scenarios) -> Outcome:
    """Exit code, a clean stderr, and the subcommand's own output contract."""
    if run.rc != 0 or "Traceback" in run.stderr:
        return Outcome(False, 0.0, f"exit {run.rc}: {run.stderr.strip()[-200:]}")
    try:
        return _CLI_CHECKS[job.kind](job, run, scenarios)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(False, 0.0, f"unreadable {job.kind} output: {exc!r}")


def _check_bch(job, run, scenarios) -> Outcome:
    fields = dict(line.split(": ", 1) for line in run.stdout.splitlines())
    res = [float(v) for v in fields["result"].strip("[]").split(",")]
    comps = [float(v) for v in job.argv[1:7]]
    defect = _frob(_rodrigues(res), _rodrigues(comps[:3]) @ _rodrigues(comps[3:]))
    reported = float(fields["check |exp(result) - exp(x) exp(y)|_F"])
    if not (defect < BCH_TOL and reported < BCH_TOL):
        return Outcome(False, 0.0, f"bch defect {defect:.3e} (reported {reported:.3e})")
    return Outcome(True)


def _check_dump(job, run, scenarios) -> Outcome:
    cfg = json.loads(run.stdout)
    if cfg["scenario"] != job.family or cfg["lambda_grid"] != [job.lam]:
        return Outcome(False, 0.0, "dumped config does not echo the flags")
    return Outcome(True)


def _check_verify(job, run, scenarios) -> Outcome:
    lines = run.stdout.splitlines()
    if not lines[:-1] or not all(line.endswith(" ok") for line in lines[:-1]):
        return Outcome(False, 0.0, "verify reported a failing family")
    worst = float(lines[-1].split(": ", 1)[1].split()[0])
    return Outcome(worst < ERR_TOL, worst, "" if worst < ERR_TOL else f"worst {worst:.3e}")


def _check_frequency(job, run, scenarios) -> Outcome:
    want = EXPECTED_LABELS[job.family]
    r = scenarios.build(job.family).r
    for entry in json.loads(run.stdout):
        got = (entry["resonance"]["kind"], entry["resonance"]["k"], entry["motion"])
        if got != want:
            return Outcome(False, 0.0, f"labels {got} != {want}")
        if not entry["circle_fit"]["rms"] < CIRCLE_RMS_TOL * r:
            return Outcome(False, 0.0, f"circle fit rms {entry['circle_fit']['rms']:.3e}")
    return Outcome(True)


def _check_drift(job, run, scenarios) -> Outcome:
    dev = abs(json.loads(run.stdout)["mu_star"] - math.sqrt(job.lam))
    return Outcome(dev < MU_TOL, 0.0, "" if dev < MU_TOL else f"|mu* - sqrt(lambda)| = {dev:.3e}")


def _check_simulate(job, run, scenarios) -> Outcome:
    sc = scenarios.build(job.family)
    lams = [float(x) for x in job.argv[job.argv.index("--lambda-grid") + 1].split(",")]
    names = {f"{sc.name}_lambda{lam!r}.csv": lam for lam in lams}
    if sorted(run.files) != sorted(names):
        return Outcome(False, 0.0, f"simulate wrote {sorted(run.files)}")
    err = 0.0
    for name, lam in names.items():
        rows = run.files[name].decode().splitlines()[1:]
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            closed = sc.closed_form(vals[0], lam)
            a = np.array(vals[1:10]).reshape(3, 3)
            err = max(err, _frob(a, closed))
            if _frob(vals[10:13], a @ sc.tip_x0) > ERR_TOL * sc.r:
                return Outcome(False, err, "tip column disagrees with the matrix")
    return Outcome(err < ERR_TOL, err, "" if err < ERR_TOL else f"max |A - A_closed|_F = {err:.3e}")


_CLI_CHECKS = {
    "bch": _check_bch,
    "dump_config": _check_dump,
    "verify": _check_verify,
    "frequency": _check_frequency,
    "drift": _check_drift,
    "simulate": _check_simulate,
}
