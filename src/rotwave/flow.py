"""Lie-group ODE integration of ``Adot = A @ hat(X^G(t, lambda))``.

The group trajectory is never stored as matrices. Each restart segment solves
the algebra-valued equation

    Zdot = dexpinv_op(Z) @ X^G(t, lambda),   Z(t_i) = 0,

with the DOP853 Runge-Kutta pair of :mod:`rotwave.ode`, stopping (by a
terminal event on |Z|) well before the dexpinv singularity at 2*pi; a trial
step whose stages reach that singularity is rejected and halved inside the
stepper. The right-hand side works on float sequences and applies
dexpinv as the vector formula ``x + (z cross x)/2 + c2(|z|) z cross (z cross x)``
without building the matrix. Segments are chained through the
closed-form BCH so that ``A(t) = exp_rot(prefix_i) @ exp_rot(Z_i(t))`` is
available at any time through dense output, without matrix products drifting
off the group. This is a Runge-Kutta-Munthe-Kaas (RKMK) method whose
exponential coordinates are re-centred at each restart: H. Munthe-Kaas,
"High order Runge-Kutta methods on manifolds", Appl. Numer. Math. 29 (1999);
A. Iserles, H. Munthe-Kaas, S. P. Nørsett and A. Zanna, "Lie-group methods",
Acta Numerica 9 (2000).

A T-periodic forcing is integrated over one relative period only. Its
monodromy ``A(t + T) = A(T) A(t)`` extends the trajectory exactly on the
group: with W the ball vector of A(T),

    A(nT + tau) = exp(n W) A(tau),   0 <= tau <= T,

so every later time costs one BCH more than a time inside the period (and
that one is cached per period count and segment). The error at nT is n times
the error of W, which is why the period is integrated ten times tighter than
the configured tolerances.

The skew product co-integrates normal-form coordinates q alongside Z (q is
untouched by the Z restarts); :func:`integrate_group` is its case without q,
and both run through one restart loop. An Euler-angle chart integrator is
provided as an independent cross-check formulation.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .bch import _bch_full, bch
from .errors import (
    ConfigError,
    DomainError,
    GimbalLockError,
    IntegrationError,
)
from .ode import OdeSolution, solve_ivp
from .so3 import (
    BallClass,
    _as_unit3,
    _ball_vector,
    _dexpinv_apply,
    _exp_matrix,
    _finite3,
    _norm3,
    _q_map,
    rot_x,
    rot_z,
)

__all__ = [
    "EulerTrajectory",
    "ForcingSignal",
    "GroupTrajectory",
    "IntegratorConfig",
    "QTrajectory",
    "SkewProductSystem",
    "ZSegment",
    "integrate_euler",
    "integrate_group",
    "integrate_skew_product",
    "integrate_z_segment",
    "stuart_landau",
]

#: |sin(theta)| below which the Euler chart is considered degenerate
GIMBAL_TOL = 1e-6

#: how much tighter than the configured rtol/atol one period is integrated
PERIOD_TOL_FACTOR = 10.0

#: entries of each of a trajectory's two caches (sample time -> class vector and
#: (period count, segment) -> prefix) before that cache is emptied
CACHE_SIZE = 1024


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive-integrator settings shared by all formulations.

    ``restart_margin`` is the distance delta from the ball boundary at which a
    Z segment is cut: the terminal event fires at ``|Z| = pi - delta``.

    :func:`integrate_group` integrates a periodic forcing over one relative
    period at ``rtol / PERIOD_TOL_FACTOR`` and ``atol / PERIOD_TOL_FACTOR``
    and reaches every later time through the monodromy. The error of
    ``A(nT)`` is n times the error of the period map, so the period is
    integrated that much tighter than the tolerances asked for; at the
    defaults the largest error over ten periods is then below that of a
    direct integration. An aperiodic forcing (``period=None``) and the skew
    product are integrated over the whole horizon at ``rtol`` and ``atol``.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    restart_margin: float = 0.1

    def __post_init__(self):
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ConfigError("rtol and atol must be positive")
        if not (0.0 < self.restart_margin < np.pi / 2):
            raise ConfigError("restart_margin must lie in (0, pi/2)")


@dataclass
class ForcingSignal:
    """Time/parameter-dependent algebra-valued forcing.

    Attributes
    ----------
    eval : callable (t, lam) -> finite 3-sequence
        The axis vector X^G(t, lam) as any sequence of three finite numbers.
        A list or tuple of three Python floats reaches the integrator as it
        is; a numpy array or other numbers are converted once per call. The
        built-in forcings return float lists; they may be called at any lam,
        compute what depends on lam alone once per lam, and raise DomainError
        for a negative lam.
    period : callable (lam) -> T(lam) > 0, or None
        T(lam) must be an exact period of ``eval(., lam)``:
        :func:`integrate_group` integrates only [0, T] and takes every later
        time from the monodromy, so a wrong period gives a wrong trajectory
        past T. ``None`` marks an aperiodic signal, which is integrated over
        its whole horizon.
    """

    eval: Callable[[float, float], Sequence[float]]
    period: Callable[[float], float] | None


@dataclass
class SkewProductSystem:
    """Group forcing driven by normal-form coordinates.

    ``x_g(q, lam)`` is the axis-vector forcing, ``x_n(q, lam)`` the
    normal-coordinate vector field on R^dim_q.
    """

    x_g: Callable[[np.ndarray, float], np.ndarray]
    x_n: Callable[[np.ndarray, float], np.ndarray]
    dim_q: int


@dataclass
class ZSegment:
    """One restart segment: dense Z(t) on [t_start, t_end] with Z(t_start) = 0."""

    t_start: float
    t_end: float
    _dense: OdeSolution = field(repr=False)

    def eval(self, t: float) -> np.ndarray:
        return np.asarray(self._dense(t)[:3], dtype=float)


def _check_forcing_value(x, t: float) -> Sequence[float]:
    """The forcing value as a float triple; DomainError unless it is a finite 3-vector.

    A list or tuple of three floats is returned as it is; anything else
    (numpy arrays, other numbers) goes through ``np.asarray``.
    """
    if not (
        (type(x) is list or type(x) is tuple) and len(x) == 3
        and type(x[0]) is float and type(x[1]) is float and type(x[2]) is float
    ):
        v = np.asarray(x, dtype=float)
        # a misshaped value fails the finiteness check below
        x = v.tolist() if v.shape == (3,) else (math.nan,) * 3
    x1, x2, x3 = x
    if math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3):
        return x
    raise DomainError(f"forcing returned a non-finite or misshaped value at t={t!r}")


def _check_in_range(t: float, t_end: float) -> None:
    if not (-1e-9 <= t <= t_end + 1e-9):
        raise DomainError(f"t={t!r} outside the integrated range [0, {t_end!r}]")


def _solve_segment(rhs, t_start: float, t_max: float, q, cfg: IntegratorConfig) -> ZSegment:
    """One solve of the state ``(Z, q)`` from ``(0, q)`` until ``|Z| = pi - delta`` or t_max."""
    cutoff = np.pi - cfg.restart_margin

    def boundary(t, y):
        return _norm3(y[:3]) - cutoff

    sol = solve_ivp(rhs, (t_start, t_max), [0.0, 0.0, 0.0, *q], cfg.rtol, cfg.atol, boundary)
    if sol.status == -1:
        raise IntegrationError(f"segment solve failed at t={sol.t[-1]!r}: {sol.message}")
    return ZSegment(t_start, float(sol.t[-1]), sol.sol)


def integrate_z_segment(
    signal: ForcingSignal,
    lam: float,
    t_start: float,
    t_max: float,
    config: IntegratorConfig | None = None,
) -> ZSegment:
    """Solve one Z segment from ``Z(t_start) = 0`` until ``|Z| = pi - delta`` or t_max.

    The segment's ``t_end`` is its exit time (== t_max when no restart fired).
    """

    xg = signal.eval

    def rhs(t, z):
        return _dexpinv_apply(z, _check_forcing_value(xg(t, lam), t))

    return _solve_segment(rhs, t_start, t_max, (), config or IntegratorConfig())


@dataclass
class GroupTrajectory:
    """Piecewise Z representation of the group trajectory with A(0) = I.

    ``class_at(t)`` is the ball class of the full product up to t (prefix
    composed with the live segment through BCH); ``eval_Z`` applies the
    hemisphere map around ``ref_dir``; ``eval_A`` exponentiates.

    The segments cover [0, T] when the forcing has period T < t_end, and
    [0, t_end] otherwise (``T`` is None for an aperiodic forcing). The
    trajectory holds (T, W), W the ball vector of A(T) (None when no time
    lies past T), and answers every time up to t_end through the monodromy:
    ``t = nT + tau`` with n >= 0 as small as possible and tau clamped to
    [0, T], and

        A(nT + tau) = exp(n W) A(tau).

    For n >= 1 the composite prefix ``bch(n W, prefix_i)`` of the segment
    holding tau is cached per (n, i), so a sample past T costs the same
    single BCH as one inside the period.

    A sample runs on Python floats from the dense state to the matrix: one
    bisect over a step table that spans all segments finds the DOP853 step
    holding tau (a restart time belongs to the later segment, an inner step
    boundary to the earlier step), its interpolant gives Z, and the
    closed-form BCH composes Z with the prefix. Only ``class_at`` builds a
    :class:`BallClass`.

    ``eval_A``, ``eval_Z`` and :func:`rotwave.hopf.periodic_part` share one
    class vector per time, cached under ``float(t)`` (at most ``CACHE_SIZE`` =
    1024 times, emptied when full): a repeated time costs one lookup plus the
    hemisphere map and Rodrigues, or one BCH. ``class_at`` bypasses the cache.
    """

    segments: list[ZSegment]
    prefixes: list[BallClass]
    ref_dir: np.ndarray
    t_end: float
    T: float | None = None

    def __post_init__(self):
        self._ref = _as_unit3(self.ref_dir)
        self._t_last = self.segments[-1].t_end
        # step k of the table covers (ends[k-1], ends[k]]; the last step of a
        # segment that ends in a restart is keyed one ulp below the restart time
        self._ends: list[float] = []
        self._steps: list = []
        self._step_prefix: list = []
        self._step_segment: list[int] = []
        last = len(self.segments) - 1
        for i, (seg, prefix) in enumerate(zip(self.segments, self.prefixes)):
            ends = seg._dense.ts[1:]
            if i < last:
                ends[-1] = math.nextafter(ends[-1], -math.inf)
            self._ends += ends
            self._steps += seg._dense.interpolants
            self._step_prefix += [prefix.vector.tolist()] * len(ends)
            self._step_segment += [i] * len(ends)
        self._extended: dict[tuple[int, int], tuple] = {}
        self._classes: dict[float, tuple] = {}
        self.W = None
        self._t_extend = math.inf  # times past this come from the monodromy
        if self.T is not None and self.T < self.t_end:
            self.W = self._class_vector(self.T)
            self._t_extend = self.T

    def _state_at(self, t: float) -> tuple[int, int, list[float]]:
        """Periods n before t, the step k holding tau = t - nT, and the dense state ``(Z, q)``."""
        _check_in_range(t, self.t_end)
        n = 0
        if t > self._t_extend:
            if t > self.t_end:
                t = self.t_end
            n = math.ceil(t / self.T) - 1
            t -= n * self.T
        if t < 0.0:
            t = 0.0
        elif t > self._t_last:
            t = self._t_last
        k = bisect.bisect_left(self._ends, t)
        return n, k, self._steps[k](t)

    def _extend(self, key: tuple[int, int], k: int):
        """Cache and return the class of ``exp(n W) exp(prefix)``, key = (n, segment of step k)."""
        if len(self._extended) >= CACHE_SIZE:
            self._extended.clear()
        nw = [key[0] * w for w in self.W]
        prefix = self._extended[key] = _ball_vector(_bch_full(nw, self._step_prefix[k])[0])
        return prefix

    def _product(self, t: float):
        """BCH of the prefix and Z(tau) as a float triple, before the ball check."""
        n, k, y = self._state_at(t)
        if n:
            key = (n, self._step_segment[k])
            prefix = self._extended.get(key)
            if prefix is None:
                prefix = self._extend(key, k)
        else:
            prefix = self._step_prefix[k]
        return _bch_full(prefix, _finite3(y[:3]))[0]

    def _class_vector(self, t: float):
        """``class_at(t).vector`` as a float triple, cached per ``float(t)``."""
        t = float(t)
        v = self._classes.get(t)
        if v is None:
            v = _ball_vector(self._product(t))
            if len(self._classes) >= CACHE_SIZE:
                self._classes.clear()
            self._classes[t] = v
        return v

    def class_at(self, t: float) -> BallClass:
        """Ball class of A(t) (no hemisphere reduction)."""
        return BallClass(np.array(self._product(t)))

    def eval_Z(self, t: float) -> np.ndarray:
        """Hemisphere-mapped logarithm of A(t) around ``ref_dir``."""
        return np.array(_q_map(self._class_vector(t), self._ref))

    def eval_A(self, t: float) -> np.ndarray:
        """The rotation A(t)."""
        return _exp_matrix(_q_map(self._class_vector(t), self._ref))


@dataclass
class QTrajectory:
    """Dense normal-form coordinates q(t), read from the co-integrated GroupTrajectory's state."""

    group: GroupTrajectory

    def eval(self, t: float) -> np.ndarray:
        return np.asarray(self.group._state_at(t)[2][3:], dtype=float)


def _reference(t_end: float, ref_dir, forcing_at_origin: Callable, what: str) -> np.ndarray:
    """Check the horizon; return ``ref_dir`` or the unit direction of the forcing at the origin."""
    if not t_end > 0.0:
        raise DomainError("t_end must be positive")
    if ref_dir is not None:
        return np.array(_as_unit3(ref_dir))
    x0 = np.array(_check_forcing_value(forcing_at_origin(), 0.0))
    n = float(np.linalg.norm(x0))
    if n < 1e-12:
        raise DomainError(
            f"cannot derive a reference direction: {what} is zero; pass ref_dir explicitly"
        )
    return x0 / n


def _integrate_restarting(
    segment: Callable[[float, list[float]], ZSegment], q0: list[float], t_stop: float
) -> tuple[list[ZSegment], list[BallClass]]:
    """Chain segments ``segment(t, q)``, each from ``Z(t) = 0`` and ``q(t) = q``, up to t_stop.

    Each restart folds the exit value of Z into the BCH prefix chain and hands
    the exit value of q on to the next segment. Returns the segments and
    their prefixes.
    """
    segments: list[ZSegment] = []
    prefixes: list[BallClass] = [BallClass(np.zeros(3))]
    t, q = 0.0, q0
    slack = 1e-12 * max(1.0, t_stop)
    while t < t_stop - slack or not segments:
        seg = segment(t, q)
        if seg.t_end <= t + slack:
            raise IntegrationError(f"integration stalled at t={t!r} (restart made no progress)")
        segments.append(seg)
        t = seg.t_end
        if t < t_stop:
            y = seg._dense(t)
            prefixes.append(bch(prefixes[-1].vector, y[:3]))
            q = y[3:]
    return segments, prefixes[: len(segments)]


def _period(signal: ForcingSignal, lam: float) -> float | None:
    """``signal.period(lam)`` as a positive finite float, or None for an aperiodic signal."""
    if signal.period is None:
        return None
    T = float(signal.period(lam))
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"forcing period must be positive and finite, got {T!r}")
    return T


def integrate_group(
    signal: ForcingSignal,
    lam: float,
    t_end: float,
    config: IntegratorConfig | None = None,
    ref_dir: np.ndarray | None = None,
) -> GroupTrajectory:
    """Integrate ``Adot = A hat(X^G(t, lam))``, ``A(0) = I`` over [0, t_end].

    This is the skew product without normal-form coordinates: each restart
    segment is one call of :func:`integrate_z_segment`. A periodic signal is
    integrated over [0, min(t_end, T)] only, at the tolerances divided by
    ``PERIOD_TOL_FACTOR``; the trajectory reaches later times through the
    monodromy (see :class:`GroupTrajectory`). An aperiodic signal
    (``period=None``) is integrated over [0, t_end] at the tolerances given.

    Parameters
    ----------
    signal : ForcingSignal
    lam : float
        Bifurcation parameter passed through to the forcing.
    t_end : float
        Final time (> 0).
    config : IntegratorConfig, optional
    ref_dir : array_like, optional
        Unit reference for the hemisphere map; defaults to the direction of
        ``signal.eval(0, 0)`` (the primary rotation at criticality).

    Returns
    -------
    GroupTrajectory
    """
    cfg = config or IntegratorConfig()
    ref = _reference(t_end, ref_dir, lambda: signal.eval(0.0, 0.0), "X^G(0, 0)")
    T = _period(signal, lam)
    t_stop = t_end
    if T is not None:
        t_stop = min(t_end, T)
        cfg = replace(cfg, rtol=cfg.rtol / PERIOD_TOL_FACTOR, atol=cfg.atol / PERIOD_TOL_FACTOR)
    segments, prefixes = _integrate_restarting(
        lambda t, q: integrate_z_segment(signal, lam, t, t_stop, cfg), [], t_stop
    )
    return GroupTrajectory(segments, prefixes, ref, t_end, T)


def integrate_skew_product(
    system: SkewProductSystem,
    q0: np.ndarray,
    lam: float,
    t_end: float,
    config: IntegratorConfig | None = None,
    ref_dir: np.ndarray | None = None,
) -> tuple[GroupTrajectory, QTrajectory]:
    """Co-integrate the group equation with normal-form coordinates.

    The combined state is ``(Z, q)``; the terminal event restarts only Z, and
    q continues across restarts with its event-time value as the next initial
    condition. q need not be periodic, so the whole horizon is integrated at
    the tolerances given and the trajectory has no period (``T`` is None).
    """
    cfg = config or IntegratorConfig()
    ref = _reference(
        t_end, ref_dir, lambda: system.x_g(np.zeros(system.dim_q), 0.0), "X^G at (q=0, lam=0)"
    )
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (system.dim_q,):
        raise DomainError(f"q0 must have shape ({system.dim_q},), got {q0.shape}")

    def rhs(t, y):
        q = np.array(y[3:])
        x = _check_forcing_value(system.x_g(q, lam), t)
        dq = np.asarray(system.x_n(q, lam), dtype=float)
        return [*_dexpinv_apply(y[:3], x), *dq.tolist()]

    segments, prefixes = _integrate_restarting(
        lambda t, q: _solve_segment(rhs, t, t_end, q, cfg), q0.tolist(), t_end
    )
    traj = GroupTrajectory(segments, prefixes, ref, t_end)
    return traj, QTrajectory(traj)


def stuart_landau(omega_bif: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Normal-form vector field ``qdot = (lam + i*omega_bif) q - |q|^2 q`` on R^2.

    From ``q0 = (sqrt(lam), 0)`` the orbit is exactly the circle of radius
    sqrt(lam) traversed with angular rate omega_bif.
    """

    def x_n(q: np.ndarray, lam: float) -> np.ndarray:
        u, v = q
        shrink = lam - (u * u + v * v)
        return np.array([shrink * u - omega_bif * v, omega_bif * u + shrink * v])

    return x_n


@dataclass
class EulerTrajectory:
    """Dense Euler-angle chart solution, normalized so that eval_A(0) = I."""

    t_end: float
    theta0: float
    _dense: Callable = field(repr=False)
    _a0_inv: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self._a0_inv is None:
            self._a0_inv = rot_x(self.theta0).T

    def eval_angles(self, t: float) -> np.ndarray:
        """(phi, theta, psi) at time t."""
        _check_in_range(t, self.t_end)
        return np.asarray(self._dense(min(max(t, 0.0), self.t_end)), dtype=float)

    def eval_A(self, t: float) -> np.ndarray:
        phi, theta, psi = self.eval_angles(t)
        return self._a0_inv @ rot_z(psi) @ rot_x(theta) @ rot_z(phi)


def integrate_euler(
    signal: ForcingSignal,
    lam: float,
    t_end: float,
    theta0: float,
    config: IntegratorConfig | None = None,
) -> EulerTrajectory:
    """Integrate the same group ODE in the Euler-angle chart A = Rz(psi)Rx(theta)Rz(phi).

    The chart equations (F the forcing axis vector in the moving frame) are

        phi_dot   = Fz - cot(theta) (Fy cos(phi) + Fx sin(phi))
        theta_dot = -Fy sin(phi) + Fx cos(phi)
        psi_dot   = (Fy cos(phi) + Fx sin(phi)) / sin(theta)

    with phi(0) = psi(0) = 0 and theta(0) = theta0 in (0, pi). Evaluation
    with |sin(theta)| < 1e-6 raises GimbalLockError (theta0 = 0 raises
    immediately). This formulation exists as an independent cross-check of
    the Z-equation integrator; it cannot pass through the chart singularity.
    """
    cfg = config or IntegratorConfig()
    if not t_end > 0.0:
        raise DomainError("t_end must be positive")
    if abs(math.sin(theta0)) < GIMBAL_TOL:
        raise GimbalLockError(f"theta0 = {theta0!r} is at the chart singularity")
    if not (0.0 < theta0 < np.pi):
        raise DomainError("theta0 must lie in (0, pi)")

    def rhs(t, y):
        phi, theta, _psi = y
        s = math.sin(theta)
        if abs(s) < GIMBAL_TOL:
            raise GimbalLockError(f"theta reached the chart singularity at t={t!r}")
        fx, fy, fz = _check_forcing_value(signal.eval(t, lam), t)
        m = fy * math.cos(phi) + fx * math.sin(phi)
        return (
            fz - (math.cos(theta) / s) * m,
            -fy * math.sin(phi) + fx * math.cos(phi),
            m / s,
        )

    sol = solve_ivp(rhs, (0.0, t_end), (0.0, theta0, 0.0), cfg.rtol, cfg.atol)
    if sol.status == -1:
        raise IntegrationError(f"euler-chart solve failed at t={sol.t[-1]!r}: {sol.message}")
    return EulerTrajectory(t_end, theta0, sol.sol)
