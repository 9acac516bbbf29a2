"""rotwave benchmark: one command per workload, end to end or traced per layer.

Usage, from the root of a rotwave checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are ``sweep``, ``sample`` and ``cli`` (see perfbench/README.md).
The program is imported from ``src/`` of the checkout; nothing is installed.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
"""
from __future__ import annotations

import os

# pinned before numpy loads, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sweep", "sample", "cli")

#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 5

#: a job tail is the highest percentile with at least this many jobs beyond it
TAIL_BEYOND = 10

#: the references' times on this benchmark's host when it runs fast; times
#: are reported as if the host always ran at that speed
KERNEL_NOMINAL_S = 0.02
FRESH_NOMINAL_S = 0.12

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "max_err": "frob",
    "peak_rss_mb": "MB",
}


# -------------------------------------------------------------- host speed

def reference_kernel() -> None:
    """Fixed interpreter and small-numpy work, independent of rotwave."""
    import math

    import numpy as np

    a = np.eye(3)
    for i in range(3000):
        v = np.array([math.sin(i), math.cos(i), 0.5])
        k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        a = (np.eye(3) + 0.1 * k) @ a
        float(np.linalg.norm(v))


def reference_interpreter() -> None:
    """A fresh interpreter that imports numpy: start-up work without rotwave."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT,
                   capture_output=True, check=True, timeout=60)


class HostSpeed:
    """Times a reference between jobs to factor out the host's speed.

    The host's speed swings by up to 2x, within seconds and from core to
    core, from load outside this process, and work of different kinds slows
    by different amounts. So in-process jobs are measured against
    ``reference_kernel`` and fresh interpreters against
    ``reference_interpreter``. ``tick()`` times the reference once and
    returns its index; a time measured between ticks i and i + 1 is scaled
    by ``factor(i)``: the nominal time over the mean of those two reference
    times. References further away track the job's speed worse, not better.
    """

    def __init__(self, reference, nominal_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.ref_s: list[float] = []
        reference()  # the first call pays imports and cold caches

    def tick(self) -> int:
        t0 = time.perf_counter()
        self.reference()
        self.ref_s.append(time.perf_counter() - t0)
        return len(self.ref_s) - 1

    def factor(self, i: int) -> float:
        return self.nominal_s / (0.5 * (self.ref_s[i] + self.ref_s[i + 1]))

    def scale(self, samples) -> list[float]:
        """Nominal-speed values of (raw seconds, tick) samples."""
        return [raw * self.factor(i) for raw, i in samples]

    def describe(self) -> str:
        r = sorted(self.ref_s)
        return (f"{self.reference.__name__} {1e3 * r[0]:.1f}..{1e3 * r[-1]:.1f} ms, median "
                f"{1e3 * statistics.median(r):.1f}, nominal {1e3 * self.nominal_s:.1f}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so the reference timings
    describe the core the jobs run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ------------------------------------------------------------------ set-up

def setup_probe(workload: str, seed: int) -> int:
    """Body of one fresh-interpreter set-up: import rotwave, build the inputs."""
    t0 = time.perf_counter()
    import rotwave  # noqa: F401

    t1 = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import jobs

    rounds = jobs.make_jobs(workload, seed)
    if workload != "cli":
        jobs.Runner()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "jobs": len(rounds)}))
    return 0


def measure_setup(workload: str, seed: int, speed: HostSpeed):
    """(wall, tick) of fresh set-ups and (import time, tick) inside them."""
    walls, imports = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    speed.tick()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        i = speed.tick() - 1
        walls.append((wall, i))
        imports.append((json.loads(proc.stdout.splitlines()[-1])["import_s"], i))
    return walls, imports


# ---------------------------------------------------------------- recording

class Record:
    """Executions, failures, the worst error and the timings of a run.

    Timings are kept raw as (seconds, tick) and scaled once the run is over.
    """

    def __init__(self):
        self.times: list[tuple] = []
        self.traced: list[tuple] = []
        self.untraced: list[tuple] = []
        self.startup: list[tuple] = []
        self.main_s: dict[str, list[tuple]] = {}
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.first: dict[tuple, str] = {}
        self.reasons: list[str] = []

    def add(self, job, sample: tuple | None, digest: str, check) -> None:
        """Count one execution; ``check`` runs only on a job's first execution.

        ``sample`` is (seconds, tick), or None when the execution raised,
        in which case ``digest`` says why.
        """
        self.attempted += 1
        key = (job.kind, job.id)
        if sample is None:
            ok, why = False, digest
        elif key not in self.first:
            self.first[key] = digest
            outcome = check()
            self.max_err = max(self.max_err, outcome.err)
            ok, why = outcome.ok, outcome.why
        else:
            ok = digest == self.first[key]
            why = "" if ok else "rerun output differs from the first run"
        if ok:
            self.times.append(sample)
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"job {job.id} ({job.kind} {job.family} {job.lam:.6g}): {why}")


def timed(fn, *args):
    """(seconds, result) of one call, or (None, error text) if it raised."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failing job is counted, never fatal
        return None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ------------------------------------------------------------ measurements

def run_inprocess(joblist, seconds, tr, jobs, speed, rec) -> list[dict]:
    """Cycle the round until ``seconds`` have passed (at least one round).

    With a tracer, every job runs twice, untraced and traced, alternating
    which goes first; the untraced execution is checked, the traced one must
    reproduce it, and the tracer's aggregates are cut per round.
    """
    runner = jobs.Runner()
    timed(runner.run, joblist[0])  # warm-up: first-call costs stay out of the timings
    rounds = []
    m = len(joblist)
    start = time.perf_counter()
    tick = speed.tick()
    i = 0
    while i < m or time.perf_counter() - start < seconds:
        job = joblist[i % m]
        if tr is None:
            dt, out = timed(runner.run, job)
        else:
            def traced_run(job=job):
                with tr.job(job.id, job.kind):
                    return runner.run(job)
            order = (runner.run, traced_run) if i % 2 == 0 else (traced_run, runner.run)
            results = {fn: timed(fn, job) for fn in order}
            dt, out = results[runner.run]
            dt_t, out_t = results[traced_run]
            if dt_t is None:
                dt, out = None, out_t
            elif dt is not None:
                if jobs.fingerprint(out_t) != jobs.fingerprint(out):
                    dt, out = None, "traced output differs from untraced"
                else:
                    rec.untraced.append((dt, tick))
                    rec.traced.append((dt_t, tick))
        digest = jobs.fingerprint(out) if dt is not None else out
        rec.add(job, None if dt is None else (dt, tick), digest,
                lambda: runner.check(job, out))
        tick = speed.tick()
        i += 1
        if tr is not None and i % m == 0:
            rounds.append(tr.take())
    return rounds


def run_cli(joblist, seconds, tr, jobs, workdir: Path, speed, rec) -> list[dict]:
    """Cycle the cli round in fresh interpreters until ``seconds`` have passed.

    When ``tr`` is given, each job also calls ``rotwave.cli.main(argv)``
    in-process, untraced and traced, for main times, start-up times and the
    tracer's aggregates (cut per round); both must reproduce the fresh
    interpreter's output bytes.
    """
    scenarios = sys.modules["rotwave.scenarios"]
    main = sys.modules["rotwave.cli"].main
    sub_dir, in_dir = workdir / "sub", workdir / "inproc"
    env = child_env()
    rounds = []
    m = len(joblist)
    start = time.perf_counter()
    tick = speed.tick()
    i = 0
    while i < m or time.perf_counter() - start < seconds:
        job = joblist[i % m]
        wall, run = timed(jobs.run_cli_subprocess, job, sub_dir, env)
        dt = None if wall is None else run.seconds
        if dt is not None and tr is not None:
            def traced_main(job=job):
                with tr.job(job.id, job.kind):
                    return jobs.run_cli_inprocess(job, in_dir, main)
            def plain_main(job=job):
                return jobs.run_cli_inprocess(job, in_dir, main)
            order = (plain_main, traced_main) if i % 2 == 0 else (traced_main, plain_main)
            results = {fn: timed(fn)[1] for fn in order}
            sub_digest = jobs.cli_fingerprint(run, sub_dir)
            if any(isinstance(results[fn], str)
                   or jobs.cli_fingerprint(results[fn], in_dir) != sub_digest for fn in order):
                dt, run = None, "in-process main differs from the fresh interpreter"
            else:
                m_u, m_t = results[plain_main].seconds, results[traced_main].seconds
                rec.untraced.append((m_u, tick))
                rec.traced.append((m_t, tick))
                rec.startup.append((dt - m_u, tick))
                rec.main_s.setdefault(job.kind, []).append((m_u, tick))
        digest = jobs.cli_fingerprint(run, sub_dir) if dt is not None else run
        rec.add(job, None if dt is None else (dt, tick), digest,
                lambda: jobs.check_cli(job, run, scenarios))
        tick = speed.tick()
        i += 1
        if tr is not None and i % m == 0:
            rounds.append(tr.take())
    return rounds


# ----------------------------------------------------------------- metrics

def layer_metrics(rounds: list[dict], scale: float) -> tuple[dict, bool]:
    """Per-layer metrics per round: counts from the first, times as medians.

    ``scale`` takes the times to nominal host speed. Returns the metrics and
    whether every complete round had the same counts.
    """
    def span(r, name):
        return r["spans"].get(name, (0, 0.0, 0.0))

    def med_time(name, field):
        return scale * statistics.median(span(r, name)[field] for r in rounds)

    first = rounds[0]
    steady = all(
        r["counts"] == first["counts"]
        and {k: v[0] for k, v in r["spans"].items()} == {k: v[0] for k, v in first["spans"].items()}
        for r in rounds
    )
    out = {}
    for name in ("so3.dexpinv_op", "scenarios.forcing", "so3.exp_rot", "bch.bch", "so3.q_map",
                 "scenarios.closed_form", "flow.eval_A", "flow.integrate_group",
                 "flow.solve_ivp", "hopf.find_orthogonal_branch"):
        out[name + ".calls"] = (span(first, name)[0], "count")
    for name in ("so3.dexpinv_op", "scenarios.forcing", "so3.exp_rot", "bch.bch", "so3.q_map",
                 "scenarios.closed_form", "flow.class_at", "flow.solve_ivp",
                 "tip.tip_trajectory", "tip.fit_circle", "hopf.classify",
                 "hopf.primary_frequency"):
        out[name + ".self_s"] = (med_time(name, 2), "s")
    for name in ("flow.integrate_group", "hopf.find_orthogonal_branch"):
        out[name + ".total_s"] = (med_time(name, 1), "s")
    for name in ("bch.bch", "flow.eval_A"):
        n = span(first, name)[0]
        out[name + ".us_per_call"] = (1e6 * med_time(name, 1) / n if n else 0.0, "us")
    counts = first["counts"]
    steps, roots = counts["accepted_steps"], span(first, "hopf.find_orthogonal_branch")[0]
    out["flow.segments"] = (counts["segments"], "count")
    out["flow.solve_retries"] = (span(first, "flow.solve_ivp")[0] - counts["segments"], "count")
    out["flow.rhs_evals"] = (counts["rhs_evals"], "count")
    out["flow.accepted_steps"] = (steps, "count")
    out["flow.evals_per_step"] = (counts["rhs_evals"] / steps if steps else 0.0, "1")
    out["hopf.drift_evals"] = (counts["drift_evals"] / roots if roots else 0.0, "1")
    return out, steady


def cli_metrics(rec: Record, imports: list[tuple], speed: HostSpeed) -> dict:
    def med(samples):
        return statistics.median(speed.scale(samples)) if samples else 0.0

    out = {"cli.import_s": (med(imports), "s"), "cli.startup_s": (med(rec.startup), "s")}
    for kind in ("bch", "dump_config", "verify", "frequency", "drift", "simulate"):
        out[f"cli.main_s.{kind}"] = (med(rec.main_s.get(kind, [])), "s")
    return out


def overhead_metrics(rec: Record, speed: HostSpeed) -> dict:
    n = len(rec.traced)
    t_sum, u_sum = sum(speed.scale(rec.traced)), sum(speed.scale(rec.untraced))
    return {
        "trace.overhead_pct": (100.0 * (t_sum / u_sum - 1.0) if u_sum else 0.0, "%"),
        "trace.jobs_per_s": (n / t_sum if t_sum else 0.0, "1/s"),
        "trace.untraced_jobs_per_s": (n / u_sum if u_sum else 0.0, "1/s"),
    }


def end_to_end_metrics(rec: Record, walls, speed: HostSpeed, fresh: HostSpeed, workload: str):
    times = speed.scale(rec.times)
    value, pct = tail(times) if times else (0.0, 0.0)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(fresh.scale(walls)),
        "jobs_per_s": len(times) / sum(times) if times else 0.0,
        "job_p50_ms": 1e3 * statistics.median(times) if times else 0.0,
        "job_tail_ms": 1e3 * value,
        "max_err": rec.max_err,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # KiB on Linux
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, pct, len(times)


# ------------------------------------------------------------- environment

def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
        return next(line.split()[0] for line in packed if line.endswith(" " + name))
    except (OSError, StopIteration):
        return "unknown"


def environment(args, cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git_commit(),
        "trace": bool(args.trace),
    }


# -------------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure(args, speed: HostSpeed, fresh: HostSpeed, workdir: Path):
    """Run the workload; returns the record, the traced rounds, the tracer
    and the round of jobs. ``speed`` scales the workload's jobs, ``fresh``
    the cli jobs of a traced run's cli pass."""
    import rotwave
    import rotwave.cli  # noqa: F401  (the package does not import it)

    if not Path(rotwave.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"rotwave imported from {rotwave.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import jobs
    import tracer

    joblist = jobs.make_jobs(args.workload, args.seed)
    tr = tracer.Tracer() if args.trace else None
    rec = Record()
    if args.workload == "cli":
        return rec, run_cli(joblist, args.seconds, tr, jobs, workdir, speed, rec), tr, joblist
    seconds = args.seconds
    if tr is not None:
        # one pass of the cli round gives the cli.* numbers; it counts
        # against the run's time and stays out of the traced rounds
        t0 = time.perf_counter()
        run_cli(jobs.make_jobs("cli", args.seed), 0.0, tr, jobs, workdir, fresh, rec)
        tr.take()
        rec.times.clear()
        rec.traced.clear()
        rec.untraced.clear()
        seconds -= time.perf_counter() - t0
    rounds = run_inprocess(joblist, seconds, tr, jobs, speed, rec)
    return rec, rounds, tr, joblist


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rotwave" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rotwave sources under {SRC}; run from a rotwave checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    cpu = pin_to_one_cpu()
    fresh = HostSpeed(reference_interpreter, FRESH_NOMINAL_S)
    walls, imports = measure_setup(args.workload, args.seed, fresh)
    if args.workload == "cli":
        speed = fresh
    else:
        speed = HostSpeed(reference_kernel, KERNEL_NOMINAL_S)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        rec, rounds, tr, joblist = measure(args, speed, fresh, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, cpu)
    print(f"rotwave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    print(f"round: {len(joblist)} jobs; executions: {rec.attempted}, failed: {rec.failed}, "
          f"fail_ratio: {rec.failed / rec.attempted:.6g}")
    for why in rec.reasons:
        print("  failure: " + why)
    for ref in dict.fromkeys((fresh, speed)):
        print(f"host speed: {ref.describe()}")
    print("times are scaled to nominal host speed")

    correct = rec.failed == 0
    if args.trace:
        scale = speed.nominal_s / statistics.median(speed.ref_s)
        metrics, steady = layer_metrics(rounds, scale)
        metrics.update(cli_metrics(rec, imports, fresh))
        metrics.update(overhead_metrics(rec, speed))
        if not steady:
            print("  failure: per-layer counts differ between rounds")
            correct = False
        print(f"per-layer times are seconds per round, the median of {len(rounds)} traced rounds")
    else:
        metrics, pct, n = end_to_end_metrics(rec, walls, speed, fresh, args.workload)
        print(f"setup_s: median of {SETUP_PROBES} fresh interpreters; "
              f"job_tail_ms: p{pct:.1f} of n={n} jobs")

    result_file = WORK / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reference_s": {ref.reference.__name__: ref.ref_s for ref in (fresh, speed)},
        "setup": walls,
        "jobs": rec.times,
        "job_spans": [] if tr is None else tr.jobs,
        "rounds": rounds if args.trace else [],
    }))
    print(f"details in {result_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
