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

All numeric output uses 17 significant digits and fixed key order, so reruns
are byte-identical. Exit codes: 0 success, 2 configuration error, 3
numerical failure (integration, bracketing, fitting, or chart singularity).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import scenarios
from .bch import bch, bch_breakdown
from .errors import ConfigError, FitError, IoError, RotwaveError
from .flow import IntegratorConfig, integrate_group
from .hopf import _period_class, classify, find_orthogonal_branch, primary_frequency
from .so3 import exp_rot
from .tip import fit_circle, tip_trajectory

__all__ = ["RunConfig", "main", "entry"]

#: largest horizon x samples-per-period: the rows simulate writes per lambda
#: (one more with t = 0), which also bounds the frequency horizon
MAX_SAMPLES = 1_000_000


@dataclass
class RunConfig:
    """Effective settings of one CLI run (defaults < config file < flags)."""

    scenario: str = "case1"
    overrides: dict = field(default_factory=dict)
    lambda_grid: list = field(default_factory=lambda: [0.05])
    mu: float | None = None
    mu_bracket: tuple = (0.0, 0.3)
    horizon: int = 5
    samples_per_period: int = 100
    rtol: float = 1e-10
    atol: float = 1e-12
    restart_margin: float = 0.1
    out: str | None = None

    def validate(self) -> None:
        """Raise ConfigError unless every field has its documented type and range.

        Config files can put any JSON value in any field, so types are checked
        here, before anything computes with them.
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
        if self.horizon * self.samples_per_period > MAX_SAMPLES:
            raise ConfigError(
                f"horizon x samples-per-period must be <= {MAX_SAMPLES} "
                "(the rows simulate writes per lambda)"
            )
        for name in ("rtol", "atol", "restart_margin"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.mu is not None and not _is_real(self.mu):
            raise ConfigError(f"mu must be a finite number, got {self.mu!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.lambda_grid, (list, tuple)):
            raise ConfigError(f"lambda_grid must be a list, got {self.lambda_grid!r}")
        if not self.lambda_grid:
            raise ConfigError("lambda grid is empty")
        for lam in self.lambda_grid:
            if not (_is_real(lam) and lam >= 0.0):
                raise ConfigError(f"lambda values must be finite and >= 0, got {lam!r}")
        if not isinstance(self.mu_bracket, (list, tuple)) or len(self.mu_bracket) != 2:
            raise ConfigError("mu_bracket must have exactly two entries")
        a, b = self.mu_bracket
        if not (_is_real(a) and _is_real(b)):
            raise ConfigError(
                f"mu_bracket entries must be finite numbers, got {self.mu_bracket!r}"
            )
        if not a < b:
            raise ConfigError(f"mu_bracket must satisfy a < b, got {self.mu_bracket!r}")

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            rtol=self.rtol, atol=self.atol, restart_margin=self.restart_margin
        )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


# ---------------------------------------------------------------- output fmt

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """Fixed-format JSON: floats at 17 significant digits, insertion key order."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_json_text(v, indent + 1) for v in obj]
        if not items:
            return "[]"
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


def _write_text(path: str | Path, text: str) -> None:
    try:
        p = Path(path)
        if p.parent and not p.parent.exists():
            p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_text(out, text if text.endswith("\n") else text + "\n")


# ------------------------------------------------------------- config loading

_FLAG_FIELDS = (
    "scenario", "mu", "horizon", "samples_per_period",
    "rtol", "atol", "restart_margin", "out",
)


def _load_config(args: argparse.Namespace) -> tuple[RunConfig, frozenset]:
    """The run's validated config and the names of the fields that the config
    file or a flag set (the rest hold their defaults)."""
    cfg = RunConfig()
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        known = set(RunConfig.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config key(s) {sorted(unknown)}; known: {sorted(known)}")
        if isinstance(raw.get("mu_bracket"), list):
            raw["mu_bracket"] = tuple(raw["mu_bracket"])
        cfg = replace(cfg, **raw)

    updates = {}
    for name in _FLAG_FIELDS:
        val = getattr(args, name, None)
        if val is not None:
            updates[name] = val
    if getattr(args, "lam", None) is not None and getattr(args, "lambda_grid", None) is not None:
        raise ConfigError("pass either --lambda or --lambda-grid, not both")
    if getattr(args, "lam", None) is not None:
        updates["lambda_grid"] = [args.lam]
    elif getattr(args, "lambda_grid", None) is not None:
        updates["lambda_grid"] = _parse_float_list(args.lambda_grid, "--lambda-grid")
    if getattr(args, "mu_bracket", None) is not None:
        pair = _parse_float_list(args.mu_bracket, "--mu-bracket")
        if len(pair) != 2:
            raise ConfigError("--mu-bracket needs exactly two comma-separated numbers")
        updates["mu_bracket"] = tuple(pair)
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg, frozenset(raw) | frozenset(updates)


def _parse_float_list(text: str, flag: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _load_scenario(args: argparse.Namespace, drift: bool = False):
    """The run's config and its scenario, checked before anything is run or dumped.

    ConfigError for a config that the subcommand would reject: an unknown
    scenario or bad overrides, ``mu`` on a family without a drift parameter,
    and (``drift``) a one-parameter family or any ``mu``, since drift
    searches for mu* itself.
    """
    cfg, _ = _load_config(args)
    sc = scenarios.build(cfg.scenario, **cfg.overrides)
    if drift and not sc.takes_mu:
        raise ConfigError(
            f"scenario {sc.name!r} has no drift parameter; use a two-parameter family (example4)"
        )
    if drift and cfg.mu is not None:
        raise ConfigError("drift searches for mu* itself and takes no mu; set --mu-bracket instead")
    _check_mu(cfg, sc)
    return cfg, sc


def _check_mu(cfg: RunConfig, sc) -> None:
    if cfg.mu is not None and not sc.takes_mu:
        raise ConfigError(f"scenario {sc.name!r} takes no mu parameter")


def _maybe_dump(cfg: RunConfig, args: argparse.Namespace) -> bool:
    if getattr(args, "dump_config", False):
        doc = asdict(cfg)
        doc["mu_bracket"] = list(cfg.mu_bracket)
        sys.stdout.write(_json_text(doc) + "\n")
        return True
    return False


# ---------------------------------------------------------------- subcommands

def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, sc = _load_scenario(args)
    if _maybe_dump(cfg, args):
        return 0
    icfg = cfg.integrator()
    outdir = Path(cfg.out or ".")
    header = "t," + ",".join(f"a{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)) + ",tipx,tipy,tipz"
    for lam in cfg.lambda_grid:
        T = sc.period(lam, cfg.mu)
        n = cfg.horizon * cfg.samples_per_period
        traj = integrate_group(
            sc.forcing(lam, cfg.mu), lam, cfg.horizon * T, icfg, ref_dir=sc.frame.x0_dir
        )
        lines = [header]
        for i in range(n + 1):
            t = i * T / cfg.samples_per_period
            a = traj.eval_A(min(t, traj.t_end))
            tippt = a @ sc.tip_x0
            lines.append(
                ",".join([_fmt(t)] + [_fmt(v) for v in a.reshape(-1)] + [_fmt(v) for v in tippt])
            )
        path = outdir / f"{sc.name}_lambda{lam!r}.csv"
        _write_text(path, "\n".join(lines) + "\n")
        sys.stdout.write(f"wrote {path} ({n + 1} rows)\n")
    return 0


def _frequency_entry(sc, lam: float, cfg: RunConfig, icfg: IntegratorConfig) -> dict:
    T = sc.period(lam, cfg.mu)
    traj = integrate_group(
        sc.forcing(lam, cfg.mu), lam, cfg.horizon * T, icfg, ref_dir=sc.frame.x0_dir
    )
    X = primary_frequency(traj, T)
    report = classify(sc.X0, sc.omega_bif, X, T, lam)
    n_ps = min(5, cfg.horizon)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, [i * T for i in range(n_ps + 1)])
    try:
        fit = fit_circle(track.points)
        circle = {
            "axis": [float(v) for v in fit.axis],
            "radius": fit.radius,
            "rms": fit.rms_residual,
        }
    except FitError:
        circle = None  # e.g. exactly-periodic tip: all period samples coincide
    return {
        "lambda": lam,
        "X": [float(v) for v in report.X],
        "Xf": [float(v) for v in report.Xf],
        "norm_X": float(np.linalg.norm(report.X)),
        "norm_Xf": float(np.linalg.norm(report.Xf)),
        "resonance": {"kind": report.resonance.kind.value, "k": report.resonance.k},
        "ortho_defect": report.ortho_defect,
        "motion": None if report.motion is None else report.motion.value,
        "circle_fit": circle,
    }


def cmd_frequency(args: argparse.Namespace) -> int:
    cfg, sc = _load_scenario(args)
    if _maybe_dump(cfg, args):
        return 0
    icfg = cfg.integrator()
    entries = [_frequency_entry(sc, lam, cfg, icfg) for lam in cfg.lambda_grid]
    _emit(_json_text(entries), cfg.out)
    return 0


def cmd_bch(args: argparse.Namespace) -> int:
    x = np.array(args.components[:3])
    y = np.array(args.components[3:])
    cls = bch(x, y)
    br = bch_breakdown(x, y)
    out = [
        "result: [" + ", ".join(_fmt(v) for v in cls.vector) + "]",
        "norm: " + _fmt(cls.norm),
        "branch: " + br.branch.value,
    ]
    for name in ("alpha", "beta", "gamma", "e", "a1", "b1", "c1", "d1", "d", "s"):
        out.append(f"{name}: " + _fmt(getattr(br, name)))
    if args.check:
        defect = float(np.linalg.norm(exp_rot(cls.vector) - exp_rot(x) @ exp_rot(y)))
        out.append("check |exp(result) - exp(x) exp(y)|_F: " + _fmt(defect))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    cfg, sc = _load_scenario(args, drift=True)
    if _maybe_dump(cfg, args):
        return 0
    icfg = cfg.integrator()
    entries = []
    for lam in cfg.lambda_grid:
        mu_star = find_orthogonal_branch(
            sc.forcing_family, lam, cfg.mu_bracket, sc.X0, icfg
        )
        defect = _ortho_defect(sc, lam, mu_star, icfg)
        entries.append({"lambda": lam, "mu_star": mu_star, "ortho_defect": defect})
    doc = entries[0] if len(entries) == 1 else entries
    _emit(_json_text(doc), cfg.out)
    return 0


def _ortho_defect(sc, lam: float, mu: float, icfg: IntegratorConfig) -> float | None:
    if lam == 0.0:
        return None  # no drift at criticality; the defect is 0/0
    z, T = _period_class(sc.forcing_family, lam, mu, sc.frame.x0_dir, icfg)
    raw = z / T
    n = float(np.linalg.norm(raw))
    if n == 0.0:
        return None
    return float(raw @ sc.frame.x0_dir) / n


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify the configured scenario, lambda grid and mu where the config
    file or a flag sets them; by default every example at lambda = 0, 1e-4
    and 1e-2, and example4 at mu = 0, 0.1 and 0.3."""
    cfg, given = _load_config(args)
    names = [cfg.scenario] if "scenario" in given else list_all_examples()
    built = [scenarios.build(name, **cfg.overrides) for name in names]
    for sc in built:
        _check_mu(cfg, sc)
    if _maybe_dump(cfg, args):
        return 0
    icfg = cfg.integrator()
    lams = cfg.lambda_grid if "lambda_grid" in given else [0.0, 1e-4, 1e-2]
    tol = 1e-7
    worst = 0.0
    failed = False
    for sc in built:
        if not sc.takes_mu:
            mus = [None]
        elif cfg.mu is None:
            mus = [0.0, 0.1, 0.3]
        else:
            mus = [cfg.mu]
        for lam in lams:
            for mu in mus:
                dev = scenarios.verify_against_closed_form(sc, lam, mu, config=icfg)
                worst = max(worst, dev)
                ok = dev < tol
                failed = failed or not ok
                tag = "" if mu is None else f" mu={_fmt(mu)}"
                sys.stdout.write(
                    f"{sc.name} lambda={_fmt(lam)}{tag}: max|A_num - A_closed|_F = "
                    f"{dev:.3e} {'ok' if ok else 'FAIL'}\n"
                )
    sys.stdout.write(f"worst deviation: {worst:.3e} (tolerance {tol:g})\n")
    return 3 if failed else 0


def list_all_examples() -> list:
    return [n for n in scenarios.available() if n.startswith("example")]


# --------------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser, drift: bool = False) -> None:
    """The shared flags; drift searches for mu* itself, so it takes --mu-bracket, not --mu."""
    p.add_argument("--scenario", help="scenario name (see rotwave verify --help)")
    p.add_argument("--lambda", dest="lam", type=float, help="single bifurcation parameter")
    p.add_argument("--lambda-grid", help="comma-separated lambda values")
    if not drift:
        p.add_argument("--mu", type=float, help="drift parameter (two-parameter scenarios)")
    p.add_argument(
        "--horizon", type=int,
        help=f"run length in relative periods (default 5; horizon x samples-per-period "
        f"<= {MAX_SAMPLES})",
    )
    p.add_argument(
        "--samples-per-period", type=int, help="output samples per period (default 100)"
    )
    p.add_argument("--rtol", type=float, help="integrator relative tolerance (default 1e-10)")
    p.add_argument("--atol", type=float, help="integrator absolute tolerance (default 1e-12)")
    p.add_argument(
        "--restart-margin", type=float,
        help="distance from the ball boundary at which Z segments restart (default 0.1)",
    )
    p.add_argument("--out", help="output file (or directory for simulate)")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument(
        "--dump-config", action="store_true",
        help="print the effective configuration as JSON and exit",
    )
    if drift:
        p.add_argument("--mu-bracket", help="comma-separated bracket for mu* (default 0,0.3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotwave",
        description="Reduced rotation-group dynamics for rotating and meandering waves on a sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario and write trajectory CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("frequency", help="frequency vectors, resonance, and motion labels")
    _add_common(p)
    p.set_defaults(func=cmd_frequency)

    p = sub.add_parser("bch", help="closed-form composition of two axis vectors")
    p.add_argument("components", type=float, nargs=6, metavar="V",
                   help="x1 x2 x3 y1 y2 y3")
    p.add_argument("--check", action="store_true",
                   help="also print the homomorphism defect of the result")
    p.set_defaults(func=cmd_bch)

    # no abbreviations: drift has no --mu, which would otherwise abbreviate --mu-bracket
    p = sub.add_parser(
        "drift", help="locate the orthogonal-drift branch mu*(lambda)", allow_abbrev=False
    )
    _add_common(p, drift=True)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("verify", help="check built-in families against their closed forms")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
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
