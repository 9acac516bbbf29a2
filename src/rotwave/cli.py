"""Command-line interface.

Subcommands
-----------
simulate   integrate a scenario over a horizon of relative periods and write
           one CSV per lambda (columns t, a11..a33 row-major, tipx..tipz)
frequency  per-lambda frequency report as a JSON array (X, X^f, resonance,
           motion label, circle fit of the tip's period samples)
bch        compose two axis vectors through the closed-form BCH
drift      locate the orthogonal-drift branch mu*(lambda) for a
           two-parameter scenario
verify     integrate every built-in family against its closed form

:func:`_load` works out a run's (scenario, lambda, mu) triples and checks them
before anything runs; the subcommands loop over them. ``drift`` takes its
defect from the period class that its root-find integrated at mu*.

All numeric output uses 17 significant digits and fixed key order, so reruns
are byte-identical. Exit codes: 0 success, 2 configuration or output error
(an unwritable --out or stdout), 3 numerical failure (integration,
bracketing, fitting, or chart singularity).

Every subcommand runs on Python floats, and none imports numpy: ``frequency``
calls the scalar forms behind ``primary_frequency``, ``classify`` and
``fit_circle``, and takes the tip samples as ``simulate`` does. ``json`` and
``pathlib`` are imported where JSON is read or written and where an output
path is built, so that ``bch`` loads neither.

At module level this module imports only what every subcommand uses,
``errors`` and the float helpers and ``IntegratorConfig`` of ``so3``; each
subcommand imports the rest where it calls into it. Since ``import rotwave``
runs no submodule, ``bch`` runs ``errors``, ``so3`` and ``bch`` alone;
``--dump-config``, and a run that stops at a configuration error, run at most
``scenarios`` besides, which imports ``flow`` where it integrates; ``verify``
and ``simulate`` add ``bch``, ``flow`` and ``ode``; ``drift`` adds ``hopf``,
and ``frequency`` ``hopf`` and ``tip``. So that building the parser runs none
of them, the help's scenario names are restated here, and the default
tolerances are read from ``IntegratorConfig``.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .errors import ConfigError, DomainError, FitError, IoError, RotwaveError
from .so3 import (
    MAX_SAMPLES, IntegratorConfig, _ball_vector, _dot3, _exp_entries, _finite, _frob_dist,
    _matmul3, _matvec3, _norm3, _vec3,
)

__all__ = ["RunConfig", "main", "entry"]

#: ``scenarios.available()``, restated for the ``--scenario`` help so that building the parser
#: runs neither ``scenarios`` nor ``flow`` (a test pins it equal to its home)
_SCENARIOS = (
    "case1", "case2", "case3", "example1", "example2", "example3", "example4", "example5",
)


#: the default of ``overrides`` and ``lambda_grid``, each made anew for every RunConfig
_FRESH = object()


class RunConfig:
    """Effective settings of one CLI run (defaults < config file < flags)."""

    #: the settings, in the constructor's order: the config file's keys and
    #: those of ``--dump-config``
    FIELDS = (
        "scenario", "overrides", "lambda_grid", "mu", "mu_bracket", "horizon",
        "samples_per_period", "rtol", "atol", "out",
    )

    def __init__(
        self,
        scenario: str = "case1",
        overrides: dict = _FRESH,
        lambda_grid: list = _FRESH,
        mu: float | None = None,
        mu_bracket: tuple = (0.0, 0.3),
        horizon: int = 5,
        samples_per_period: int = 100,
        rtol: float = IntegratorConfig.rtol,
        atol: float = IntegratorConfig.atol,
        out: str | None = None,
    ):
        self.scenario = scenario
        self.overrides = {} if overrides is _FRESH else overrides
        self.lambda_grid = [0.05] if lambda_grid is _FRESH else lambda_grid
        self.mu, self.mu_bracket = mu, mu_bracket
        self.horizon, self.samples_per_period = horizon, samples_per_period
        self.rtol, self.atol, self.out = rtol, atol, out

    def validate(self, command: str) -> RunConfig:
        """This config with its numbers as floats, carrying its integrator settings as
        ``_integrator``, the IntegratorConfig that every integration of the run takes.

        ConfigError unless every field has its documented type and range.
        Config files can put any JSON value in any field, so types are checked
        here, before anything computes with them; a file's integers then
        become the floats that the same flags give. ``horizon`` is at most
        MAX_SAMPLES for every subcommand, so that ``horizon * T`` stays a
        float; the rows bound ``horizon * samples_per_period`` applies to
        ``command == "simulate"`` only, the one subcommand that samples
        per period. ``drift`` searches for mu* itself and takes no ``mu``.
        """
        if not isinstance(self.scenario, str):
            raise ConfigError(f"scenario must be a string, got {self.scenario!r}")
        if not isinstance(self.overrides, dict):
            raise ConfigError(f"overrides must be an object, got {self.overrides!r}")
        for name in ("horizon", "samples_per_period"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.samples_per_period < 1:
            raise ConfigError("samples-per-period must be >= 1")
        if self.horizon > MAX_SAMPLES:
            raise ConfigError(f"horizon must be <= {MAX_SAMPLES}")
        if command == "simulate" and self.horizon * self.samples_per_period > MAX_SAMPLES:
            raise ConfigError(
                f"horizon x samples-per-period must be <= {MAX_SAMPLES} "
                "(the rows simulate writes per lambda)"
            )
        mu = None if self.mu is None else _finite(self.mu, "mu", ConfigError)
        if command == "drift" and self.mu is not None:
            raise ConfigError("drift searches for mu* itself and takes no mu; set --mu-bracket instead")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.lambda_grid, (list, tuple)):
            raise ConfigError(f"lambda_grid must be a list, got {self.lambda_grid!r}")
        if not self.lambda_grid:
            raise ConfigError("lambda grid is empty")
        lams = [_finite(lam, "lambda", ConfigError, nonnegative=True) for lam in self.lambda_grid]
        if not isinstance(self.mu_bracket, (list, tuple)) or len(self.mu_bracket) != 2:
            raise ConfigError("mu_bracket must have exactly two entries")
        a, b = (_finite(m, "mu_bracket entry", ConfigError) for m in self.mu_bracket)
        if not a < b:
            raise ConfigError(f"mu_bracket must be finite numbers a < b, got {self.mu_bracket!r}")
        integrator = IntegratorConfig(self.rtol, self.atol)
        cfg = RunConfig(
            self.scenario, self.overrides, lams, mu, (a, b), self.horizon, self.samples_per_period,
            integrator.rtol, integrator.atol, self.out,
        )
        cfg._integrator = integrator
        return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# ---------------------------------------------------------------- output fmt

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """Fixed-format JSON: floats at 17 significant digits, insertion key order.

    No emitted value is a boolean (validation rejects them) or an empty list."""
    import json

    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        items = [_json_text(v, indent + 1) for v in obj]
        body = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _json_text(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_text(path: str | os.PathLike, text: str) -> None:
    from pathlib import Path

    try:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None = None) -> None:
    """Write ``text``, newline-terminated, to the file ``out`` or to stdout.

    Every byte a subcommand prints passes here. A stdout that fails, as a
    closed pipe or a full device does, or that is None (fd 1 was closed at
    start-up) is an IoError, as an unwritable ``out`` is. The failed stream
    is then dropped from ``sys``, so that the interpreter does not flush its
    bytes again at exit and report that failure a second time.
    """
    if not text.endswith("\n"):
        text += "\n"
    if out is not None:
        return _write_text(out, text)
    if sys.stdout is None:
        raise IoError("cannot write to stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        sys.stdout = None
        raise IoError(f"cannot write to stdout: {exc}") from None


# ------------------------------------------------------------- config loading

def _load(args: argparse.Namespace) -> tuple[RunConfig, list]:
    """The run's validated config and its (scenario, lambda, mu) runs, checked
    before anything is run or dumped.

    Config-file keys are RunConfig.FIELDS, and each flag's dest is the field
    it sets (None when unset). The runs take the scenario, lambda grid and mu
    set by the file or a flag; verify's defaults are every example at lambda =
    0, 1e-4 and 1e-2, and example4 at mu = 0, 0.1 and 0.3. drift's mu is None.

    ConfigError for a config that the subcommand would reject: an unknown
    scenario or bad overrides, ``mu`` on a family without a drift parameter,
    drift on a one-parameter family, constants past the float range, and an
    end time that overflows. The period is evaluated at every run, which
    computes the constants (for drift, at both ends of the mu bracket), and so
    is the end time that the run integrates to: ``horizon`` periods for
    ``simulate`` and ``frequency``, ``scenarios.VERIFY_PERIODS`` for ``verify``.
    """
    from . import scenarios

    known = RunConfig.FIELDS
    raw = {}
    if args.config:
        import json

        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = set(raw) - set(known)
        if unknown:
            raise ConfigError(f"unknown config key(s) {sorted(unknown)}; known: {sorted(known)}")
    given = {**raw, **{k: v for k, v in vars(args).items() if k in known and v is not None}}
    cfg = RunConfig(**given).validate(args.command)
    drift, verify = args.command == "drift", args.command == "verify"
    names, lams = [cfg.scenario], cfg.lambda_grid
    if verify and "scenario" not in given:
        names = [n for n in scenarios.available() if n.startswith("example")]
    if verify and "lambda_grid" not in given:
        lams = [0.0, 1e-4, 1e-2]
    runs = []
    for sc in [scenarios.build(name, **cfg.overrides) for name in names]:
        if drift and not sc.takes_mu:
            raise ConfigError(
                f"scenario {sc.name!r} has no drift parameter; use a two-parameter family (example4)"
            )
        mus = [0.0, 0.1, 0.3] if verify and cfg.mu is None and sc.takes_mu else [cfg.mu]
        runs += [(sc, lam, mu) for lam in lams for mu in mus]
    # the relative periods that a run integrates over: drift's root-find integrates one at a time
    periods = scenarios.VERIFY_PERIODS if verify else 1 if drift else cfg.horizon
    for sc, lam, mu in runs:
        for probe in cfg.mu_bracket if drift else [mu]:
            if periods * sc.period(lam, probe) == math.inf:
                raise ConfigError(
                    f"scenario {sc.name}: the end time {_fmt(periods)} T overflows at lambda {lam!r}"
                )
    return cfg, runs


# ---------------------------------------------------------------- subcommands

def _run(sc, lam: float, mu, cfg: RunConfig):
    """(trajectory, T): sc at (lam, mu) integrated over cfg.horizon relative periods T."""
    from .flow import integrate_group

    T = sc.period(lam, mu)
    traj = integrate_group(
        sc.forcing(lam, mu), lam, cfg.horizon * T, cfg._integrator, ref_dir=sc.frame.x0_dir
    )
    return traj, T


def cmd_simulate(cfg: RunConfig, runs: list) -> int:
    from pathlib import Path

    outdir = Path(cfg.out or ".")
    header = "t," + ",".join(f"a{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)) + ",tipx,tipy,tipz"
    n = cfg.horizon * cfg.samples_per_period
    for sc, lam, mu in runs:
        traj, T = _run(sc, lam, mu, cfg)
        lines = [header]
        for i in range(n + 1):
            t = i * T / cfg.samples_per_period
            a = traj._A_entries(min(t, traj.t_end))
            row = (t, *a, *_matvec3(a, sc.tip_x0))
            lines.append(",".join([_fmt(v) for v in row]))
        path = outdir / f"{sc.name}_lambda{lam!r}.csv"
        _write_text(path, "\n".join(lines) + "\n")
        _emit(f"wrote {path} ({n + 1} rows)")
    return 0


def _frequency_entry(sc, lam: float, mu, cfg: RunConfig) -> dict:
    from .hopf import _classify, _primary_frequency
    from .tip import _fit_circle

    traj, T = _run(sc, lam, mu, cfg)
    X = _primary_frequency(traj, T)
    norm_X = _norm3(X)
    Xf, res, ortho, motion = _classify(sc.X0, sc.omega_bif, X, T, lam)
    # the tip at each period sample, A(iT) x0 (A(0) is the identity)
    points = [_matvec3(traj._A_entries(i * T), sc.tip_x0) for i in range(min(5, cfg.horizon) + 1)]
    try:
        # the axis points along X (X = 0 gives coincident samples, no fit)
        axis, _, radius, rms = _fit_circle(points, [a / norm_X for a in X] if norm_X else X)
        circle = {"axis": axis, "radius": radius, "rms": rms}
    except FitError:
        circle = None  # e.g. exactly-periodic tip: all period samples coincide
    return {
        "lambda": lam,
        "X": X,
        "Xf": Xf,
        "norm_X": norm_X,
        "norm_Xf": _norm3(Xf),
        "resonance": {"kind": res.kind.value, "k": res.k},
        "ortho_defect": ortho,
        "motion": None if motion is None else motion.value,
        "circle_fit": circle,
    }


def cmd_frequency(cfg: RunConfig, runs: list) -> int:
    entries = [_frequency_entry(sc, lam, mu, cfg) for sc, lam, mu in runs]
    _emit(_json_text(entries), cfg.out)
    return 0


def cmd_bch(args: argparse.Namespace) -> int:
    from .bch import BchBreakdown, _bch_full

    try:
        x = _vec3(args.components[:3])
        y = _vec3(args.components[3:])
    except DomainError as exc:
        raise ConfigError(f"bch components: {exc}") from None
    w, fields = _bch_full(x, y)
    w = _ball_vector(w)
    br = BchBreakdown(*fields)
    out = [
        "result: [" + ", ".join(_fmt(v) for v in w) + "]",
        "norm: " + _fmt(_norm3(w)),
        "branch: " + br.branch.value,
    ]
    for name in ("alpha", "beta", "gamma", "e", "a1", "b1", "c1", "d1", "d", "s"):
        out.append(f"{name}: " + _fmt(getattr(br, name)))
    if args.check:
        defect = _frob_dist(_exp_entries(w), _matmul3(_exp_entries(x), _exp_entries(y)))
        out.append("check |exp(result) - exp(x) exp(y)|_F: " + _fmt(defect))
    _emit("\n".join(out))
    return 0


def _drift_entry(sc, lam: float, cfg: RunConfig) -> dict:
    """mu* and the orthogonality defect of Z(T)/T there, from the class that the
    root-find integrated at mu*. The defect is null at lam = 0 (no drift at
    criticality) and for Z = 0 (no direction): both are 0/0."""
    from .hopf import _orthogonal_branch

    mu_star, found = _orthogonal_branch(sc.forcing_family, lam, cfg.mu_bracket, sc.X0, cfg._integrator)
    defect = None
    if found is not None:
        z, T = found
        raw = [a / T for a in z]
        n = _norm3(raw)
        defect = _dot3(raw, sc.frame.x0_dir) / n if n else None
    return {"lambda": lam, "mu_star": mu_star, "ortho_defect": defect}


def cmd_drift(cfg: RunConfig, runs: list) -> int:
    entries = [_drift_entry(sc, lam, cfg) for sc, lam, _ in runs]
    doc = entries[0] if len(entries) == 1 else entries
    _emit(_json_text(doc), cfg.out)
    return 0


def cmd_verify(cfg: RunConfig, runs: list) -> int:
    from .scenarios import verify_against_closed_form

    tol = 1e-7
    worst = 0.0
    failed = False
    lines = []
    for sc, lam, mu in runs:
        dev = verify_against_closed_form(sc, lam, mu, config=cfg._integrator)
        worst = max(worst, dev)
        ok = dev < tol
        failed = failed or not ok
        tag = "" if mu is None else f" mu={_fmt(mu)}"
        lines.append(
            f"{sc.name} lambda={_fmt(lam)}{tag}: max|A_num - A_closed|_F = "
            f"{dev:.3e} {'ok' if ok else 'FAIL'}\n"
        )
    lines.append(f"worst deviation: {worst:.3e} (tolerance {tol:g})\n")
    _emit("".join(lines), cfg.out)
    return 3 if failed else 0


# --------------------------------------------------------------------- parser

def _lambda_point(text: str) -> list:
    """--lambda's value: a one-point lambda grid."""
    try:
        return [float(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None


def _float_list(text: str) -> list:
    """--lambda-grid's and --mu-bracket's value: comma-separated numbers
    (empty entries skipped; validate checks the bracket's length)."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}") from None


def _add_common(p: argparse.ArgumentParser, drift: bool = False, horizon: bool = True) -> None:
    """The shared flags, each with the dest and value of the RunConfig field it
    sets. drift searches for mu* itself, so it takes --mu-bracket, not --mu;
    ``horizon`` adds --horizon, which only simulate and frequency read."""
    p.add_argument("--scenario", help=f"scenario name: {', '.join(_SCENARIOS)}")
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lambda_grid", metavar="LAM", type=_lambda_point,
                     help="single bifurcation parameter")
    lam.add_argument("--lambda-grid", type=_float_list, help="comma-separated lambda values")
    if not drift:
        p.add_argument("--mu", type=float, help="drift parameter (two-parameter scenarios)")
    if horizon:
        p.add_argument(
            "--horizon", type=int,
            help=f"run length in relative periods (default 5, at most {MAX_SAMPLES})",
        )
    p.add_argument("--rtol", type=float,
                   help=f"integrator relative tolerance (default {IntegratorConfig.rtol:g})")
    p.add_argument("--atol", type=float,
                   help=f"integrator absolute tolerance (default {IntegratorConfig.atol:g})")
    p.add_argument("--out", help="output file (or directory for simulate)")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument(
        "--dump-config", action="store_true",
        help="print the effective configuration as JSON and exit",
    )
    if drift:
        p.add_argument("--mu-bracket", type=_float_list,
                       help="comma-separated bracket for mu* (default 0,0.3)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose stdout text, the help, goes through :func:`_emit`,
    and which reads every argument that starts with ``-`` and a digit, ``-.``
    and a digit, ``-inf`` or ``-nan`` (any case) as a value.

    argparse's own write ignores a failed write but leaves the text in
    stdout's buffer, which the interpreter then fails to flush at exit.
    argparse takes only ``-1`` and ``-1.5`` for negative numbers, so a value
    such as ``-1e-3`` (the form that the outputs print) or the bracket
    ``-0.001,0.3`` was an unknown option; no rotwave option looks like a
    number. Subparsers take this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            return _emit(message)
        return super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rotwave",
        description="Reduced rotation-group dynamics for rotating and meandering waves on a sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario and write trajectory CSVs")
    _add_common(p)
    p.add_argument(
        "--samples-per-period", type=int,
        help=f"output samples per period (default 100; horizon x samples-per-period "
        f"<= {MAX_SAMPLES})",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("frequency", help="frequency vectors, resonance, and motion labels")
    _add_common(p)
    p.set_defaults(func=cmd_frequency)

    p = sub.add_parser("bch", help="closed-form composition of two axis vectors")
    p.add_argument("components", type=float, nargs=6, metavar="V",
                   help="x1 x2 x3 y1 y2 y3")
    p.add_argument("--check", action="store_true",
                   help="also print the homomorphism defect of the result")

    # no abbreviations: drift has no --mu, which would otherwise abbreviate --mu-bracket
    p = sub.add_parser(
        "drift", help="locate the orthogonal-drift branch mu*(lambda)", allow_abbrev=False
    )
    _add_common(p, drift=True, horizon=False)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("verify", help="check built-in families against their closed forms")
    _add_common(p, horizon=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "bch":
            return cmd_bch(args)
        cfg, runs = _load(args)
        if args.dump_config:  # every check has passed, and nothing has run
            _emit(_json_text({name: getattr(cfg, name) for name in RunConfig.FIELDS}))
            return 0
        return args.func(cfg, runs)
    except SystemExit as exc:  # argparse's exit after --help or a usage error
        return 0 if exc.code in (0, None) else 2
    except (ConfigError, IoError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RotwaveError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
