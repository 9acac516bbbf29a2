"""Built-in forcing families with closed-form group solutions.

Each family perturbs a rigid rotation ``X_0 = x0_norm * X0_dir`` after a Hopf
bifurcation at lambda = 0 (epsilon = sqrt(lambda) throughout) and admits an
exact solution of ``Adot = A hat(X^G)``, which makes the families the test
bed for the integrator, the frequency extraction, and the drift finder:

``example1``  nonresonant meander: X^G = P gdot + Ad(exp(-P g)) (X0 + eps X1)
              with P = 2 eps (X1 + X2 + X0_dir); A = exp((X0+eps X1) t) exp(P g).
``example2``  1:1 resonant orthogonal drift: the modulation eps X1 is
              conjugated around C = X0 + eps X2; A = exp(eps X1 t) exp(C Theta).
``example3``  1:1 resonant slow meander: as example2 with eps (X0 + X1).
``example4``  k:1 resonant two-parameter family C = X0 + mu X1,
              W = (eps - mu) X0 + X1 + X2; the drift is orthogonal to X0
              exactly at mu = eps.
``example5``  modulated rotating wave with collinear modulation:
              X^G = (X0 + eps X1)(1 + eps gdot), A = exp((X0+eps X1)(t+eps g)).

``case1``..``case3`` are parameterized study instances of examples 1-3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .flow import ForcingSignal, IntegratorConfig, integrate_group
from .so3 import _exp_apply, exp_rot

__all__ = [
    "Frame",
    "Scenario",
    "available",
    "build",
    "verify_against_closed_form",
]

_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Frame:
    """Orthonormal right-handed frame with ``x0_dir x x1 = x2``.

    x0_dir is the primary rotation direction; x1, x2 span the transverse
    drift plane.
    """

    x0_dir: np.ndarray = field(default_factory=lambda: _EZ.copy())
    x1: np.ndarray = field(default_factory=lambda: _EX.copy())
    x2: np.ndarray = field(default_factory=lambda: _EY.copy())

    def __post_init__(self):
        vecs = [np.asarray(v, dtype=float) for v in (self.x0_dir, self.x1, self.x2)]
        for name, v in zip(("x0_dir", "x1", "x2"), vecs):
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ConfigError(f"frame vector {name} must be a finite 3-vector")
            if abs(float(np.linalg.norm(v)) - 1.0) > 1e-10:
                raise ConfigError(f"frame vector {name} must be unit within 1e-10")
        z, x1, x2 = vecs
        if max(abs(float(z @ x1)), abs(float(z @ x2)), abs(float(x1 @ x2))) > 1e-10:
            raise ConfigError("frame vectors must be mutually orthogonal within 1e-10")
        if float(np.linalg.norm(np.cross(z, x1) - x2)) > 1e-10:
            raise ConfigError("frame must be right-handed: x0_dir x x1 = x2")
        object.__setattr__(self, "x0_dir", z)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)


_GFunc = Callable[[float, float], float]


@dataclass(frozen=True)
class Scenario:
    """One forcing family instance; built via :func:`build`."""

    name: str
    family: str
    omega_bif: float
    x0_norm: float
    r: float
    theta0: float
    tip_x0: np.ndarray
    frame: Frame
    k: int = 1
    g_override: _GFunc | None = None
    gdot_override: _GFunc | None = None
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def X0(self) -> np.ndarray:
        return self.x0_norm * self.frame.x0_dir

    @property
    def takes_mu(self) -> bool:
        return self.family == "example4"

    def _g_pair(self, omega_eff: float) -> tuple[_GFunc, _GFunc]:
        if self.g_override is not None:
            return self.g_override, self.gdot_override
        def g(t: float, lam: float) -> float:
            return math.sin((omega_eff + lam) * t)
        def gdot(t: float, lam: float) -> float:
            return (omega_eff + lam) * math.cos((omega_eff + lam) * t)
        return g, gdot

    def _pieces(self, mu: float | None):
        """(xg(t, lam), closed(t, lam), period(lam)) for this family at mu.

        Built once per mu; only the latest mu is kept, since a root find asks
        for a new mu on every evaluation.
        """
        if mu not in self._built:
            pieces = self._build_pieces(mu)
            self._built.clear()
            self._built[mu] = pieces
        return self._built[mu]

    def _build_pieces(self, mu: float | None):
        """The three closures of :meth:`_pieces`.

        The forcings xg run once per right-hand-side evaluation, so they work
        on float lists (``*_l``) and apply ``exp_rot(v).T @ w`` as the vector
        Rodrigues rotation ``_exp_apply(-v, w)``.
        """
        fr = self.frame
        X0 = self.X0
        X0_l, x1_l, x2_l = X0.tolist(), fr.x1.tolist(), fr.x2.tolist()
        if self.family != "example4" and mu is not None:
            raise ConfigError(f"scenario {self.name!r} takes no mu parameter")

        omega_eff = self.omega_bif
        if self.family == "example1":
            g, gdot = self._g_pair(self.omega_bif)
            pdir = 2.0 * (fr.x1 + fr.x2 + fr.x0_dir)
            pdir_l = pdir.tolist()

            def xg(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                P = [eps * p for p in pdir_l]
                rate = gdot(t, lam)
                phase = g(t, lam)
                r = _exp_apply(
                    [-(p * phase) for p in P], [a + eps * b for a, b in zip(X0_l, x1_l)]
                )
                return np.array([p * rate + ri for p, ri in zip(P, r)])

            def closed(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                return exp_rot((X0 + eps * fr.x1) * t) @ exp_rot(eps * pdir * g(t, lam))

        elif self.family in ("example2", "example3"):
            g, gdot = self._g_pair(self.omega_bif)

            def xg(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                C = [a + eps * b for a, b in zip(X0_l, x2_l)]
                nu = abs(self.omega_bif + lam) / math.sqrt(self.x0_norm**2 + lam)
                theta = nu * t + lam * g(t, lam)
                if self.family == "example2":
                    w = [eps * b for b in x1_l]
                else:
                    w = [eps * (a + b) for a, b in zip(X0_l, x1_l)]
                rate = nu + lam * gdot(t, lam)
                r = _exp_apply([-(c * theta) for c in C], w)
                return np.array([c * rate + ri for c, ri in zip(C, r)])

            def closed(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                C = X0 + eps * fr.x2
                nu = abs(self.omega_bif + lam) / math.sqrt(self.x0_norm**2 + lam)
                w = eps * fr.x1 if self.family == "example2" else eps * (X0 + fr.x1)
                return exp_rot(w * t) @ exp_rot(C * (nu * t + lam * g(t, lam)))

        elif self.family == "example4":
            mu_val = 0.0 if mu is None else float(mu)
            norm_c = math.sqrt(self.x0_norm**2 + mu_val**2)
            # the effective Hopf frequency shifts with mu so that
            # X^G(t, 0, mu) = X0 + mu X1 holds exactly
            omega_eff = norm_c / self.k
            g, gdot = self._g_pair(omega_eff)
            C = X0 + mu_val * fr.x1
            C_l = C.tolist()

            def xg(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                nu = self.k * abs(omega_eff + lam) / norm_c
                theta = nu * t + lam * g(t, lam)
                w = [(eps - mu_val) * a + b + c for a, b, c in zip(X0_l, x1_l, x2_l)]
                rate = nu + lam * gdot(t, lam)
                amp = eps**self.k
                r = _exp_apply([-(c * theta) for c in C_l], w)
                return np.array([c * rate + amp * ri for c, ri in zip(C_l, r)])

            def closed(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                nu = self.k * abs(omega_eff + lam) / norm_c
                w = (eps - mu_val) * X0 + fr.x1 + fr.x2
                return exp_rot(eps**self.k * w * t) @ exp_rot(
                    C * (nu * t + lam * g(t, lam))
                )

        elif self.family == "example5":
            g, gdot = self._g_pair(self.omega_bif)

            def xg(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                rate = 1.0 + eps * gdot(t, lam)
                return np.array([(a + eps * b) * rate for a, b in zip(X0_l, x1_l)])

            def closed(t: float, lam: float) -> np.ndarray:
                eps = math.sqrt(lam)
                return exp_rot((X0 + eps * fr.x1) * (t + eps * g(t, lam)))

        else:  # pragma: no cover
            raise ConfigError(f"unknown family {self.family!r}")

        def period(lam: float) -> float:
            return 2.0 * np.pi / abs(omega_eff + lam)

        return xg, closed, period

    def forcing(self, lam: float = 0.0, mu: float | None = None) -> ForcingSignal:
        """ForcingSignal for this family (mu bound here; the signal's eval
        still takes (t, lam), so the lambda-family stays intact).

        With a ``g``/``gdot`` override the signal's period is None (aperiodic):
        :func:`build` checks ``g(0, lam) = 0`` but cannot check that g has the
        nominal period, so such a forcing is integrated over its whole
        horizon. :meth:`period` still reports the nominal T.
        """
        xg, _, period = self._pieces(mu)

        def eval_xg(t: float, lam_: float) -> np.ndarray:
            if lam_ < 0.0:
                raise DomainError("lambda must be nonnegative")
            return xg(t, lam_)

        return ForcingSignal(eval=eval_xg, period=None if self.g_override is not None else period)

    def closed_form(self, t: float, lam: float, mu: float | None = None) -> np.ndarray:
        """Exact A(t, lam[, mu]) for this family."""
        _, closed, _ = self._pieces(mu)
        return closed(t, lam)

    def period(self, lam: float = 0.0, mu: float | None = None) -> float:
        """Relative forcing period T(lam[, mu]) of the built-in waveform."""
        _, _, period = self._pieces(mu)
        return period(lam)

    @property
    def forcing_family(self) -> Callable[[float, float], ForcingSignal]:
        """(lam, mu) -> ForcingSignal, the shape the drift finder consumes."""
        return lambda lam, mu: self.forcing(lam, mu)


_TIP_A = np.array([0.0, 0.92, 2.85])
_TIP_B = np.array([0.44, 0.14, 2.96])

_DEFAULTS: dict[str, dict] = {
    "example1": dict(family="example1", omega_bif=20.0, x0_norm=2.0, theta0=0.01, tip=_TIP_A),
    "example2": dict(family="example2", omega_bif=20.0, x0_norm=20.0, theta0=0.02, tip=_TIP_A),
    "example3": dict(family="example3", omega_bif=20.0, x0_norm=20.0, theta0=0.5, tip=_TIP_B),
    "example4": dict(family="example4", omega_bif=20.0, x0_norm=20.0, theta0=0.5, tip=_TIP_B),
    "example5": dict(family="example5", omega_bif=20.0, x0_norm=2.0, theta0=0.01, tip=_TIP_A),
    "case1": dict(family="example1", omega_bif=20.0, x0_norm=2.0, theta0=0.01, tip=_TIP_A),
    "case2": dict(family="example2", omega_bif=20.0, x0_norm=20.0, theta0=0.02, tip=_TIP_A),
    "case3": dict(family="example3", omega_bif=20.0, x0_norm=20.0, theta0=0.5, tip=_TIP_B),
}

_ALLOWED_OVERRIDES = {
    "omega_bif", "x0_norm", "r", "theta0", "tip_x0", "frame", "k", "g", "gdot",
}


def _number(overrides: dict, name: str, default) -> float:
    """Override ``name`` (or ``default``) as a finite float; ConfigError otherwise."""
    value = overrides.get(name, default)
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be numeric, got {value!r}") from None


def available() -> list[str]:
    """Names accepted by :func:`build`."""
    return sorted(_DEFAULTS)


def build(name: str, **overrides) -> Scenario:
    """Construct a named scenario, applying parameter overrides.

    Parameters
    ----------
    name : str
        One of :func:`available`.
    **overrides
        omega_bif, x0_norm, r, theta0, tip_x0, frame (Frame or 3 rows),
        k (example4 resonance order), g and gdot (waveform callables
        (t, lam) -> float with g(0, lam) = 0).

    Raises
    ------
    ConfigError
        Unknown name or override, a non-numeric or non-finite value,
        inconsistent resonance parameters, invalid frame, or a g override
        that does not vanish at t = 0.
    """
    if name not in _DEFAULTS:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(available())}"
        )
    bad = set(overrides) - _ALLOWED_OVERRIDES
    if bad:
        raise ConfigError(f"unknown override(s) {sorted(bad)}; allowed: {sorted(_ALLOWED_OVERRIDES)}")
    spec = dict(_DEFAULTS[name])
    family = spec["family"]

    k_val = _number(overrides, "k", 1)
    if not (k_val.is_integer() and k_val >= 1):
        raise ConfigError("k must be a positive integer")
    k = int(k_val)
    if k != 1 and family != "example4":
        raise ConfigError(f"scenario {name!r} has no resonance order parameter")

    x0_norm = _number(overrides, "x0_norm", spec["x0_norm"])
    if not x0_norm > 0.0:
        raise ConfigError("x0_norm must be positive")
    if family == "example4":
        omega_bif = x0_norm / k
        if "omega_bif" in overrides and not math.isclose(
            _number(overrides, "omega_bif", omega_bif), omega_bif, rel_tol=1e-12
        ):
            raise ConfigError(
                f"example4 requires omega_bif = x0_norm / k = {omega_bif!r}"
            )
    else:
        omega_bif = _number(overrides, "omega_bif", spec["omega_bif"])
        if not omega_bif > 0.0:
            raise ConfigError("omega_bif must be positive")
        if family in ("example2", "example3") and not math.isclose(
            x0_norm, omega_bif, rel_tol=1e-12
        ):
            raise ConfigError(
                f"{family} is a 1:1 resonant family: x0_norm must equal omega_bif "
                f"(got {x0_norm!r} vs {omega_bif!r})"
            )

    r = _number(overrides, "r", 3.0)
    if not r > 0.0:
        raise ConfigError("r must be positive")
    theta0 = _number(overrides, "theta0", spec["theta0"])

    frame = overrides.get("frame", Frame())
    if not isinstance(frame, Frame):
        rows = _float_array(frame, "frame")
        if rows.shape != (3, 3):
            raise ConfigError("frame override must be a Frame or three row vectors")
        frame = Frame(rows[0], rows[1], rows[2])

    tip_raw = _float_array(overrides.get("tip_x0", spec["tip"]), "tip_x0")
    if tip_raw.shape != (3,) or not np.all(np.isfinite(tip_raw)):
        raise ConfigError("tip_x0 must be a finite 3-vector")
    tn = float(np.linalg.norm(tip_raw))
    if tn == 0.0:
        raise ConfigError("tip_x0 must be nonzero")
    tip_x0 = tip_raw * (r / tn)  # project onto the sphere of radius r

    g = overrides.get("g")
    gdot = overrides.get("gdot")
    if (g is None) != (gdot is None):
        raise ConfigError("g and gdot must be overridden together")
    if g is not None:
        if not (callable(g) and callable(gdot)):
            raise ConfigError("g and gdot overrides must be callables (t, lam) -> float")
        for lam_probe in (0.0, 0.1):
            if abs(float(g(0.0, lam_probe))) > 1e-12:
                raise ConfigError("g override must satisfy g(0, lam) = 0")

    return Scenario(
        name=name,
        family=family,
        omega_bif=omega_bif,
        x0_norm=x0_norm,
        r=r,
        theta0=theta0,
        tip_x0=tip_x0,
        frame=frame,
        k=k,
        g_override=g,
        gdot_override=gdot,
    )


def verify_against_closed_form(
    scenario: Scenario,
    lam: float,
    mu: float | None = None,
    t_grid: np.ndarray | None = None,
    config: IntegratorConfig | None = None,
) -> float:
    """Max Frobenius deviation between the integrated and exact trajectories.

    Defaults to 201 samples over two relative periods.
    """
    if t_grid is None:
        T = scenario.period(lam, mu)
        t_grid = np.linspace(0.0, 2.0 * T, 201)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
    signal = scenario.forcing(lam, mu)
    traj = integrate_group(
        signal, lam, float(t_grid[-1]), config, ref_dir=scenario.frame.x0_dir
    )
    worst = 0.0
    for t in t_grid.tolist():
        dev = float(
            np.linalg.norm(traj.eval_A(t) - scenario.closed_form(t, lam, mu))
        )
        worst = max(worst, dev)
    return worst
