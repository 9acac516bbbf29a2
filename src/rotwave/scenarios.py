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
from .so3 import _exp_apply, _exp_matrix, _finite3

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


def _exp_product(u: list[float], v: list[float]) -> np.ndarray:
    """``exp_rot(u) @ exp_rot(v)`` for float triples: two Rodrigues matrices and their product."""
    return _exp_matrix(_finite3(u)) @ _exp_matrix(_finite3(v))


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

    def _wave(self, omega_eff: float) -> Callable[[float, float], tuple[float, float]]:
        """``wave(t, lam) -> (g, gdot)``: the built-in sin((omega_eff + lam) t)
        and its derivative, or the ``g``/``gdot`` override."""
        if self.g_override is not None:
            g, gdot = self.g_override, self.gdot_override

            def wave(t: float, lam: float) -> tuple[float, float]:
                return g(t, lam), gdot(t, lam)

        else:

            def wave(t: float, lam: float) -> tuple[float, float]:
                rate = omega_eff + lam
                phase = rate * t
                return math.sin(phase), rate * math.cos(phase)

        return wave

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

        ``xg`` and ``closed`` may be called at any lambda; a negative lambda
        raises DomainError. What depends on lambda alone (eps = sqrt(lambda),
        eps times a frame vector, ``X0 + eps X1``, C, nu, w, eps^k) is
        computed once per lambda by ``constants`` and kept in a last-lambda
        memo shared by both closures: one ``(lam, constants)`` tuple, read
        whole and replaced by one assignment, so a lambda is never paired
        with another lambda's constants. The memo is keyed by the lambda
        object itself (``is``): the integrator passes one object for a whole
        run, ``-0.0`` and ``0.0`` (equal, but with constants of different
        sign) never share an entry, and an equal lambda in another object
        only recomputes.

        The forcings xg run once per right-hand-side evaluation, so they work
        on float lists (``*_l``), apply ``exp_rot(v).T @ w`` as the vector
        Rodrigues rotation ``_exp_apply(-v, w)`` and return a list of three
        floats, which the integrator takes without a numpy round trip. The
        closed forms build their axis vectors as float lists from the same
        constants and return the Rodrigues product ``_exp_product(u, v)``.
        Each float operation is that of the module docstring's formulas
        evaluated with numpy vectors and ``exp_rot``, in the same order, so
        the values equal theirs bitwise.
        """
        fr = self.frame
        X0_l, x1_l, x2_l = self.X0.tolist(), fr.x1.tolist(), fr.x2.tolist()
        if self.family != "example4" and mu is not None:
            raise ConfigError(f"scenario {self.name!r} takes no mu parameter")

        omega_eff = self.omega_bif
        if self.family == "example1":
            pdir_l = (2.0 * (fr.x1 + fr.x2 + fr.x0_dir)).tolist()

            def constants(lam: float):
                eps = math.sqrt(lam)
                # P = eps pdir and X0 + eps X1
                return [eps * p for p in pdir_l], [a + eps * b for a, b in zip(X0_l, x1_l)]

            def xg(t: float, lam: float) -> list[float]:
                key, c = memo
                if lam is not key:
                    c = lookup(lam)
                (p0, p1, p2), v = c
                phase, rate = wave(t, lam)
                r0, r1, r2 = _exp_apply((-(p0 * phase), -(p1 * phase), -(p2 * phase)), v)
                return [p0 * rate + r0, p1 * rate + r1, p2 * rate + r2]

            def closed(t: float, lam: float) -> np.ndarray:
                P, v = lookup(lam)
                phase = wave(t, lam)[0]
                return _exp_product([a * t for a in v], [p * phase for p in P])

        elif self.family in ("example2", "example3"):
            def constants(lam: float):
                eps = math.sqrt(lam)
                C = [a + eps * b for a, b in zip(X0_l, x2_l)]
                nu = abs(self.omega_bif + lam) / math.sqrt(self.x0_norm**2 + lam)
                if self.family == "example2":
                    w = [eps * b for b in x1_l]
                else:
                    w = [eps * (a + b) for a, b in zip(X0_l, x1_l)]
                return C, nu, w

            def xg(t: float, lam: float) -> list[float]:
                key, c = memo
                if lam is not key:
                    c = lookup(lam)
                (c0, c1, c2), nu, w = c
                g, gdot = wave(t, lam)
                theta = nu * t + lam * g
                rate = nu + lam * gdot
                r0, r1, r2 = _exp_apply((-(c0 * theta), -(c1 * theta), -(c2 * theta)), w)
                return [c0 * rate + r0, c1 * rate + r1, c2 * rate + r2]

            def closed(t: float, lam: float) -> np.ndarray:
                C, nu, w = lookup(lam)
                theta = nu * t + lam * wave(t, lam)[0]
                return _exp_product([a * t for a in w], [a * theta for a in C])

        elif self.family == "example4":
            mu_val = 0.0 if mu is None else float(mu)
            norm_c = math.sqrt(self.x0_norm**2 + mu_val**2)
            # the effective Hopf frequency shifts with mu so that
            # X^G(t, 0, mu) = X0 + mu X1 holds exactly
            omega_eff = norm_c / self.k
            c0, c1, c2 = C_l = (self.X0 + mu_val * fr.x1).tolist()

            def constants(lam: float):
                eps = math.sqrt(lam)
                nu = self.k * abs(omega_eff + lam) / norm_c
                w = [(eps - mu_val) * a + b + c for a, b, c in zip(X0_l, x1_l, x2_l)]
                amp = eps**self.k
                return nu, w, amp, [amp * a for a in w]

            def xg(t: float, lam: float) -> list[float]:
                key, c = memo
                if lam is not key:
                    c = lookup(lam)
                nu, w, amp, _ = c
                g, gdot = wave(t, lam)
                theta = nu * t + lam * g
                rate = nu + lam * gdot
                r0, r1, r2 = _exp_apply((-(c0 * theta), -(c1 * theta), -(c2 * theta)), w)
                return [c0 * rate + amp * r0, c1 * rate + amp * r1, c2 * rate + amp * r2]

            def closed(t: float, lam: float) -> np.ndarray:
                nu, _, _, amp_w = lookup(lam)
                theta = nu * t + lam * wave(t, lam)[0]
                return _exp_product([a * t for a in amp_w], [a * theta for a in C_l])

        elif self.family == "example5":
            def constants(lam: float):
                eps = math.sqrt(lam)
                return eps, [a + eps * b for a, b in zip(X0_l, x1_l)]

            def xg(t: float, lam: float) -> list[float]:
                key, c = memo
                if lam is not key:
                    c = lookup(lam)
                eps, (v0, v1, v2) = c
                rate = 1.0 + eps * wave(t, lam)[1]
                return [v0 * rate, v1 * rate, v2 * rate]

            def closed(t: float, lam: float) -> np.ndarray:
                eps, v = lookup(lam)
                s = t + eps * wave(t, lam)[0]
                return _exp_matrix(_finite3([a * s for a in v]))

        else:  # pragma: no cover
            raise ConfigError(f"unknown family {self.family!r}")

        wave = self._wave(omega_eff)
        memo = (object(), None)  # a key no caller can pass

        # xg repeats lookup's hit test inline: it runs once per
        # right-hand-side evaluation, and a call per evaluation costs time
        def lookup(lam: float):
            nonlocal memo
            key, c = memo
            if lam is not key:
                if lam < 0.0:
                    raise DomainError("lambda must be nonnegative")
                c = constants(lam)
                memo = (lam, c)
            return c

        def period(lam: float) -> float:
            return 2.0 * np.pi / abs(omega_eff + lam)

        return xg, closed, period

    def forcing(self, lam: float = 0.0, mu: float | None = None) -> ForcingSignal:
        """ForcingSignal for this family (mu bound here; the signal's eval
        still takes (t, lam), so the lambda-family stays intact).

        The eval is the family's closure itself: it may be called at any
        lambda, computes the lambda-only constants once per lambda (see
        :meth:`_build_pieces`), and raises DomainError for a negative lambda.

        With a ``g``/``gdot`` override the signal's period is None (aperiodic):
        :func:`build` checks ``g(0, lam) = 0`` but cannot check that g has the
        nominal period, so such a forcing is integrated over its whole
        horizon. :meth:`period` still reports the nominal T.
        """
        xg, _, period = self._pieces(mu)
        return ForcingSignal(eval=xg, period=None if self.g_override is not None else period)

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
