"""Lie-group ODE integration of ``Adot = A @ hat(X^G(t, lambda))``.

The group trajectory is never stored as matrices. Each restart segment solves
the algebra-valued equation

    Zdot = dexpinv_op(Z) @ X^G(t, lambda),   Z(t_i) = 0,

with the DOP853 Runge-Kutta pair of :mod:`rotwave.ode`, stopping (by a
terminal event on |Z|) well before the dexpinv singularity at 2*pi; a trial
step whose stages reach that singularity is rejected and halved inside the
stepper. The right-hand side works on float sequences and applies
dexpinv as the vector formula ``x + (z cross x)/2 + c2(|z|) z cross (z cross x)``
without building the matrix. For each built-in forcing shape this module generates
the eval and a fused right-hand side that does all of it in one function, from the
X^G fragment that :mod:`rotwave.scenarios` supplies (:func:`_shape_kernel`). Segments are chained
through the closed-form BCH so that ``A(t) = exp_rot(prefix_i) @ exp_rot(Z_i(t))`` is
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

so every later time costs one BCH more than a time inside the period. The
error at nT is n times the error of W, which is why the period is integrated
ten times tighter than the configured tolerances.

One restart loop chains the segments into a :class:`GroupTrajectory`, which
samples A. An Euler-angle chart integrator is provided as an independent
cross-check formulation.
"""
from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ._numpy import lazy_numpy
from .bch import _bch_arrays, _bch_full
from .errors import (
    ConfigError,
    DomainError,
    GimbalLockError,
    IntegrationError,
)
from .ode import OdeSolution, _horner, solve_ivp
from .so3 import (
    _DEXPINV_APPLY,
    BallClass,
    _as_unit3,
    _ball_vector,
    _dexpinv_kernels,
    _exp_entries,
    _exp_entries_arrays,
    _finite,
    _float_array,
    _generated,
    _indented,
    _norm3,
    _positive,
    _q_map,
    _q_map_arrays,
    _real,
    _vec3,
    rot_x,
    rot_z,
)

np = lazy_numpy(globals())

__all__ = [
    "EulerTrajectory",
    "ForcingSignal",
    "GroupTrajectory",
    "IntegratorConfig",
    "integrate_euler",
    "integrate_group",
    "integrate_z_segment",
]

#: |sin(theta)| below which the Euler chart is considered degenerate
GIMBAL_TOL = 1e-6

#: how much tighter than the configured rtol/atol one period is integrated
PERIOD_TOL_FACTOR = 10.0

#: distance from the ball boundary at which a Z segment is cut (the terminal
#: event fires at |Z| = pi - RESTART_MARGIN). Where a chart restarts is a free
#: choice of the method: over ten periods integrated directly, margins from 0.02
#: to 0.8 give the same trajectories to integration error (below 2e-9) at a cost
#: within 7% of that at 0.1
RESTART_MARGIN = 0.1

#: sample times whose class vectors (and A) a trajectory caches before emptying the cache
CACHE_SIZE = 1024

#: fewest times that GroupTrajectory.eval_A samples in one vectorised pass.
#: On fresh trajectories of the five families over two periods, with every step's
#: dense rows built first and the sample-time cache empty, the pass costs ~0.5 ms
#: however few times it holds and ~4 us per time, a time alone 16-23 us: they break
#: even near 40 times (2 cores, Python 3.11, numpy 2.4)
BATCH_MIN = 40


class IntegratorConfig:
    """Adaptive-integrator settings shared by all formulations.

    :func:`integrate_group` integrates a periodic forcing over one relative
    period at ``rtol / PERIOD_TOL_FACTOR`` and ``atol / PERIOD_TOL_FACTOR``
    and reaches every later time through the monodromy. The error of
    ``A(nT)`` is n times the error of the period map, so the period is
    integrated that much tighter than the tolerances asked for; at the
    defaults the largest error over ten periods is then below that of a
    direct integration. An aperiodic forcing (``period=None``) is integrated
    over the whole horizon at ``rtol`` and ``atol``.
    """

    #: the defaults of the settings
    rtol = 1e-10
    atol = 1e-12

    def __init__(self, rtol: float = rtol, atol: float = atol):
        self.rtol = _positive(rtol, "rtol", ConfigError)
        self.atol = _positive(atol, "atol", ConfigError)


@dataclass
class ForcingSignal:
    """Time/parameter-dependent algebra-valued forcing.

    Attributes
    ----------
    eval : callable (t, lam) -> finite 3-sequence
        The axis vector X^G(t, lam) as any sequence of three finite numbers.
        A list or tuple of three Python floats reaches the integrator as it
        is; a numpy array or other numbers are converted once per call. The
        built-in forcings return float lists, compute with ``float(lam)`` (any other
        eval gets lam as it is), may be called at any lam, compute what depends on
        lam alone once per lam, and raise DomainError for a negative lam. Where
        their phase or Rodrigues angle overflows they return a non-finite triple,
        which the integrator refuses, and never raise math's ValueError.
    period : callable (lam) -> T(lam) > 0, or None
        T(lam) must be an exact period of ``eval(., lam)``:
        :func:`integrate_group` integrates only [0, T] and takes every later
        time from the monodromy, so a wrong period gives a wrong trajectory
        past T. ``None`` marks an aperiodic signal, which is integrated over
        its whole horizon.
    """

    eval: Callable[[float, float], Sequence[float]]
    period: Callable[[float], float] | None


def _check_forcing_value(x, t: float) -> Sequence[float]:
    """The forcing value as a float triple; DomainError unless it is a 3-vector
    with a finite squared norm (:func:`_vec3`'s rule).

    A list or tuple of three floats is returned as it is; anything else
    (numpy arrays, other numbers) goes through :func:`_vec3`.
    """
    if (
        (type(x) is list or type(x) is tuple) and len(x) == 3
        and type(x[0]) is float and type(x[1]) is float and type(x[2]) is float
    ):
        x1, x2, x3 = x
        if math.isfinite(x1 * x1 + x2 * x2 + x3 * x3):
            return x
    else:
        try:
            return _vec3(x)
        except DomainError:
            pass
    raise DomainError(f"forcing returned a non-finite or misshaped value at t={t!r}")


#: what follows X^G in a generated Z-equation right-hand side: :func:`_check_forcing_value`'s
#: test of the forcing value x0, x1, x2 at t (which raises its error), then dexpinv
_Z_RHS_TAIL = """\
if not isfinite(x0 * x0 + x1 * x1 + x2 * x2):
    _check_forcing_value((x0, x1, x2), t)
z0, z1, z2 = z
""" + _DEXPINV_APPLY + "return d0, d1, d2\n"


def _time_in_range(t, t_end: float) -> float:
    """``t`` as a float; DomainError unless it is one number (:func:`_real`) in [0, t_end] (to 1e-9)."""
    s = t if type(t) is float else _real(t)
    if s is None:
        raise DomainError(f"a time must be one real number, got {t!r}")
    if not (-1e-9 <= s <= t_end + 1e-9):
        raise DomainError(f"t={t!r} outside the integrated range [0, {t_end!r}]")
    return s


def _time_list(t) -> list | None:
    """The times of a 1-D ndarray of numbers as Python floats; None for a single time.

    :func:`_float_array` checks the dtype and the shape, of 1-D times on an empty slice,
    so that a non-finite time fails each time's own check, with its message.
    """
    if not (isinstance(t, np.ndarray) and t.ndim):
        return None
    _float_array(t[:0] if t.ndim == 1 else t, (None,), "times")
    return t.astype(float).tolist()


def integrate_z_segment(
    signal: ForcingSignal,
    lam: float,
    t_start: float,
    t_max: float,
    config: IntegratorConfig | None = None,
    first_step: float | None = None,
) -> OdeSolution:
    """Solve one Z segment from ``Z(t_start) = 0`` until ``|Z| = pi - RESTART_MARGIN`` or t_max.

    The first trial step is ``first_step``, capped at ``t_max - t_start``; without it the
    solver's initial-step heuristic picks it (:func:`rotwave.ode.solve_ivp`). The restart
    loop passes each segment after the first the last step of the segment before it.
    Returns its dense output; ``ts[-1]`` is the exit time (== t_max when no restart fired).
    DomainError unless lam is a number (:func:`_real`), ``t_start < t_max`` are finite ones
    and ``first_step`` is None or a positive finite number.
    """
    _check_lam(lam)
    t0, t1 = _finite(t_start, "t_start"), _finite(t_max, "t_max")
    if not t0 < t1:
        raise DomainError(f"need t_start < t_max, got {t_start!r} and {t_max!r}")
    if first_step is not None:
        first_step = _positive(first_step, "first_step")
    cfg = config or IntegratorConfig()
    cutoff = math.pi - RESTART_MARGIN
    sol = solve_ivp(
        _z_rhs(signal.eval, lam), (t0, t1), [0.0, 0.0, 0.0], cfg.rtol, cfg.atol,
        lambda t, z: _norm3(z) - cutoff, first_step,
    )
    if sol.status == -1:
        raise IntegrationError(f"segment solve failed at t={sol.t[-1]!r}: {sol.message}")
    return sol.sol


@functools.lru_cache(maxsize=None)
def _shape_kernel(shape: str, params: str, unpack: str, fragment: str) -> Callable:
    """``bind(params) -> xg`` for one forcing shape (:data:`rotwave.scenarios._SHAPES`), compiled
    once, at the shape's first forcing: ``unpack`` and the X^G ``fragment`` set x0, x1, x2 from t
    and lam. Where math's sin or cos refuses an infinite phase or angle, the fragment's ValueError
    sets them to NaN, so ``xg`` returns a non-finite triple. ``xg._fused_rhs = (xg, rhs_at)``:
    ``rhs_at(lam)`` is the Z-equation's right-hand side at lam, X^G with the value check and
    dexpinv (:data:`_Z_RHS_TAIL`, outside the ``try``), which :func:`_z_rhs` runs in place of
    ``xg``."""
    guarded = "try:\n" + _indented(fragment, 1) + "except ValueError:\n    x0 = x1 = x2 = nan\n"
    source = f"""\
def bind({params}):
    def xg(t, lam):
        {unpack}
{_indented(guarded, 2)}        return [x0, x1, x2]
    def rhs_at(lam):
        {unpack}
        def rhs(t, z):
{_indented(guarded + _Z_RHS_TAIL, 3)}
        return rhs
    xg._fused_rhs = (xg, rhs_at)
    return xg
"""
    return _generated(source, f"<{shape} forcing>", _check_forcing_value=_check_forcing_value)["bind"]


def _z_rhs(xg: Callable, lam: float) -> Callable:
    """The Z-equation's right-hand side ``dexpinv(z, check(xg(t, lam)))``: the fused one of
    :func:`_shape_kernel` while xg is the very eval it was generated with, else the composed one."""
    fused = getattr(xg, "_fused_rhs", None)
    if fused is not None and fused[0] is xg:
        return fused[1](lam)
    _, dexpinv = _dexpinv_kernels()
    return lambda t, z: dexpinv(z, _check_forcing_value(xg(t, lam), t))


class GroupTrajectory:
    """Piecewise Z representation of the group trajectory with A(0) = I.

    ``segments`` are the dense outputs (``OdeSolution``) of Z from Z = 0 over
    each restart segment ``[ts[0], ts[-1]]``. ``class_at(t)`` is the ball
    class of the full product up to t (prefix composed with the live segment
    through BCH); ``eval_Z`` applies the hemisphere map around ``ref_dir``;
    ``eval_A`` exponentiates.

    The segments cover [0, T] when the forcing has period T < t_end, and
    [0, t_end] otherwise (``T`` is None for an aperiodic forcing). The
    trajectory holds (T, W), W the ball vector of A(T) (None when no time
    lies past T), and answers every time up to t_end through the monodromy:
    ``t = nT + tau`` with n >= 0 as small as possible and tau clamped to
    [0, T], and

        A(nT + tau) = exp(n W) A(tau).

    For n >= 1 a sample first composes the prefix of the segment holding tau
    with n W, so it costs two BCHs where a sample inside the period costs one.

    A sample runs on Python floats from the dense state to the nine entries
    of A(t): one bisect over a step table that spans all segments finds the
    DOP853 step holding tau (a restart time belongs to the later segment, an
    inner step boundary to the earlier step), its interpolant gives Z, and
    the closed-form BCH composes Z with the prefix. The prefixes, the ball
    vectors of A at the restart times, are float triples; ``ref_dir`` is one
    too. Only ``class_at`` builds a :class:`BallClass`; the public samplers
    build ndarrays from the floats. A time that is not one real number in
    [0, t_end] raises DomainError.

    ``eval_A`` also takes a 1-D ndarray of times; from ``BATCH_MIN`` times on
    it runs the chain once over them all, elementwise on arrays, bitwise equal
    to the per-time samples (:meth:`_A_batch`).

    ``eval_A``, ``eval_Z``, :func:`rotwave.hopf.primary_frequency` and
    :func:`rotwave.hopf.periodic_part` share one sample-time cache, keyed by
    ``float(t)`` (at most ``CACHE_SIZE`` = 1024 times, emptied when full). Its
    record for a time is whole, the class vector and A's nine entries,
    whichever sampler made it: a repeated ``eval_A`` costs one lookup,
    ``eval_Z`` the hemisphere map, and ``log_Bf`` one BCH. The records are the
    floats the per-time chain computes, so a hit returns the bits of a cold
    sample. ``class_at`` bypasses the cache.
    """

    def __init__(
        self,
        segments: list[OdeSolution],
        prefixes: list[tuple[float, float, float]],
        ref_dir: tuple[float, float, float],
        t_end: float,
        T: float | None,
    ):
        self.segments, self.prefixes, self.ref_dir = segments, prefixes, ref_dir
        self.t_end, self.T = t_end, T
        self._t_last = self.segments[-1].ts[-1]
        # step k of the table covers (ends[k-1], ends[k]]; the last step of a
        # segment that ends in a restart is keyed one ulp below the restart time
        self._ends: list[float] = []
        self._steps: list = []
        self._step_segment: list[int] = []
        last = len(self.segments) - 1
        for i, seg in enumerate(self.segments):
            ends = seg.ts[1:]
            if i < last:
                ends[-1] = math.nextafter(ends[-1], -math.inf)
            self._ends += ends
            self._steps += seg.interpolants
            self._step_segment += [i] * len(ends)
        # float(t) -> (class vector, A's nine entries)
        self._samples: dict[float, tuple] = {}
        self.W = None  # set: times past T come from the monodromy
        if self.T is not None and self.T < self.t_end:
            self.W = self._class_vector(self.T)

    def _state_at(self, t: float) -> tuple[int, int, list[float]]:
        """Periods n before t, the step k holding tau = t - nT, and Z(tau); t is a float
        that :func:`_time_in_range` has checked."""
        n = 0
        if self.W is not None and t > self.T:
            t = min(t, self.t_end)
            n = math.ceil(t / self.T) - 1
            t -= n * self.T
        t = min(max(t, 0.0), self._t_last)
        k = bisect.bisect_left(self._ends, t)
        return n, k, self._steps[k](t)

    def _prefix(self, n: int, i: int):
        """The class of ``exp(n W) exp(prefix_i)`` as a float triple."""
        if not n:
            return self.prefixes[i]
        return _ball_vector(_bch_full([n * w for w in self.W], self.prefixes[i])[0])

    def _product(self, t: float):
        """BCH of the prefix and Z(tau) as a float triple, before the ball check."""
        n, k, z = self._state_at(t)
        return _bch_full(self._prefix(n, self._step_segment[k]), z)[0]

    def _store(self, t: float, record: tuple) -> tuple:
        """Cache the record ``(v, a)`` of the checked float t, emptying a full cache first:
        the one eviction rule. v is ``class_at(t).vector``, a the nine entries of A(t)."""
        if len(self._samples) >= CACHE_SIZE:
            self._samples.clear()
        self._samples[t] = record
        return record

    def _record(self, t: float) -> tuple:
        """The record ``(v, a)`` of the time t (:meth:`_store`): the cached one, or the per-time
        chain's, cached. DomainError unless :func:`_time_in_range` accepts t."""
        t = _time_in_range(t, self.t_end)
        record = self._samples.get(t)
        if record is None:
            v = _ball_vector(self._product(t))
            record = self._store(t, (v, _exp_entries(_q_map(v, self.ref_dir))))
        return record

    def _class_vector(self, t: float):
        """``class_at(t).vector`` as a float triple, cached per ``float(t)``."""
        return self._record(t)[0]

    def class_at(self, t: float) -> BallClass:
        """Ball class of A(t) (no hemisphere reduction)."""
        return BallClass(self._product(_time_in_range(t, self.t_end)))

    def eval_Z(self, t: float) -> np.ndarray:
        """Hemisphere-mapped logarithm of A(t) around ``ref_dir``."""
        return np.array(_q_map(self._class_vector(t), self.ref_dir))

    def _A_entries(self, t: float) -> tuple:
        """The nine entries of A(t), row-major: the float form of :meth:`eval_A`, cached per ``float(t)``."""
        return self._record(t)[1]

    def eval_A(self, t) -> np.ndarray:
        """The rotation A(t), or the (m, 3, 3) stack of A at a 1-D ndarray of m times."""
        ts = _time_list(t)
        if ts is None:
            return np.array(self._A_entries(t)).reshape(3, 3)
        if len(ts) < BATCH_MIN:
            return np.array([self._A_entries(s) for s in ts]).reshape(-1, 3, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._A_batch(ts)

    def _A_batch(self, ts: list[float]) -> np.ndarray:
        """:meth:`eval_A` of many times: the per-time chain, step by step on arrays.

        The times are located on the step ends that the per-time sampler
        bisects, and only the steps they land in build their dense rows. numpy
        rounds + - * / and sqrt as Python floats do, and sin, cos and atan2 are
        math's, so each sample is bitwise its per-time value. A time whose
        product is the identity or a half turn, needs the snap onto the
        boundary sphere or lies in the hemisphere band is redone alone. The
        class vectors and the nine entries of A enter the sample-time cache.
        """
        t = np.array(ts)
        ok = (t >= -1e-9) & (t <= self.t_end + 1e-9)
        if not ok.all():
            _time_in_range(ts[int(ok.argmin())], self.t_end)
        n, tau = np.zeros(len(ts)), t
        if self.W is not None:
            tau = np.minimum(t, self.t_end)
            n = np.where(t > self.T, np.ceil(tau / self.T) - 1.0, 0.0)
            tau = tau - n * self.T
        tau = np.where(tau < 0.0, 0.0, np.where(tau > self._t_last, self._t_last, tau))
        located, k = np.unique(np.searchsorted(self._ends, tau), return_inverse=True)
        steps = [self._steps[j] for j in located.tolist()]
        rows = np.array([step.dense_rows() for step in steps]).transpose(2, 1, 0)
        t0, h = np.array([[step.t0, step.h] for step in steps]).T
        x = (tau - t0[k]) / h[k]
        z = _horner(x, 1.0 - x, rows[:, :, k])  # Z(tau), one row per component
        if not np.isfinite(z).all():
            raise DomainError("expected a finite 3-vector")
        # the prefix class of each time, from one per (n, segment) pair
        m = len(self.segments)
        segment = np.array(self._step_segment)[located]
        pairs, which = np.unique(n.astype(int) * m + segment[k], return_inverse=True)
        prefixes = np.array([self._prefix(*divmod(p, m)) for p in pairs.tolist()])
        v, generic = _bch_arrays(prefixes.T[:, which], z)
        w, plain = _q_map_arrays(v, self.ref_dir)
        entries = _exp_entries_arrays(w)
        stack = np.stack(entries, axis=-1).reshape(-1, 3, 3)
        fast = (generic & plain).tolist()
        columns = zip(ts, zip(*(c.tolist() for c in v)), zip(*(e.tolist() for e in entries)))
        for i, (ti, vi, ai) in enumerate(columns):
            if fast[i]:
                self._store(ti, (vi, ai))
            else:
                stack[i] = np.reshape(self._A_entries(ti), (3, 3))
        return stack


def _check_lam(lam) -> None:
    """DomainError unless ``lam`` is a number (:func:`_real`); callers pass on ``lam`` itself,
    the object that keys the built-in forcings' memo."""
    if _real(lam) is None:
        raise DomainError(f"lambda must be a real number, got {lam!r}")


def _reference(ref_dir, signal: ForcingSignal) -> tuple:
    """``ref_dir`` checked, or the unit direction of ``X^G(0, 0)``."""
    if ref_dir is not None:
        return _as_unit3(ref_dir, "ref_dir")
    x0 = _check_forcing_value(signal.eval(0.0, 0.0), 0.0)
    n = _norm3(x0)
    if n < 1e-12:
        raise DomainError(
            "cannot derive a reference direction: X^G(0, 0) is zero; pass ref_dir explicitly"
        )
    return tuple(a / n for a in x0)


def _integrate_restarting(
    signal: ForcingSignal, lam: float, t_stop: float, cfg: IntegratorConfig
) -> tuple[list[OdeSolution], list[tuple]]:
    """Chain :func:`integrate_z_segment` segments of ``signal`` at lam, each from ``Z(t) = 0``, up to t_stop.

    Each restart folds the exit value of Z into the BCH prefix chain and hands
    the last accepted step on to the next segment as its first step ``h``: a
    restart changes the chart, not the dynamics, so only the first segment
    (``h`` None) takes the solver's initial-step heuristic. Returns the
    segments and their prefixes, as ball vectors (float triples).

    The loop runs until t is within ``slack = 1e-12 * max(1, t_stop)`` of t_stop.
    A segment that restarts short of t_stop after advancing at most ``slack`` has
    stalled (IntegrationError); one that reaches t_stop has not, however short.
    """
    segments: list[OdeSolution] = []
    prefixes: list[tuple] = [(0.0, 0.0, 0.0)]
    t, h = 0.0, None
    slack = 1e-12 * max(1.0, t_stop)
    while t < t_stop - slack or not segments:
        seg = integrate_z_segment(signal, lam, t, t_stop, cfg, h)
        if seg.ts[-1] < t_stop and seg.ts[-1] <= t + slack:
            raise IntegrationError(f"integration stalled at t={t!r} (restart made no progress)")
        segments.append(seg)
        t = seg.ts[-1]
        if t < t_stop:
            prefixes.append(_ball_vector(_bch_full(prefixes[-1], seg(t))[0]))
            h = seg.interpolants[-1].h
    return segments, prefixes[: len(segments)]


def _period(signal: ForcingSignal, lam: float) -> float | None:
    """``signal.period(lam)`` as a positive finite float, or None for an aperiodic signal."""
    if signal.period is None:
        return None
    return _positive(signal.period(lam), "forcing period")


def integrate_group(
    signal: ForcingSignal,
    lam: float,
    t_end: float,
    config: IntegratorConfig | None = None,
    ref_dir: np.ndarray | None = None,
) -> GroupTrajectory:
    """Integrate ``Adot = A hat(X^G(t, lam))``, ``A(0) = I`` over [0, t_end].

    Each restart segment is one call of :func:`integrate_z_segment`. A
    periodic signal is integrated over [0, min(t_end, T)] only, at the
    tolerances divided by ``PERIOD_TOL_FACTOR``; the trajectory reaches later
    times through the monodromy (see :class:`GroupTrajectory`). An aperiodic
    signal (``period=None``) is integrated over [0, t_end] at the tolerances
    given.

    Parameters
    ----------
    signal : ForcingSignal
    lam : float
        Bifurcation parameter passed through to the forcing.
    t_end : float
        Final time (> 0). A periodic signal with m restart segments per period
        needs t_end / T < 2**53 / m, so that the batch sampler's int64 key
        ``n * m + segment`` of period count n stays exact.
    config : IntegratorConfig, optional
    ref_dir : array_like, optional
        Unit reference for the hemisphere map; defaults to the direction of
        ``signal.eval(0, 0)`` (the primary rotation at criticality).

    Returns
    -------
    GroupTrajectory
    """
    cfg = config or IntegratorConfig()
    _check_lam(lam)
    t_end = _positive(t_end, "t_end")
    ref = _reference(ref_dir, signal)
    T = _period(signal, lam)
    t_stop = t_end
    if T is not None:
        t_stop = min(t_end, T)
        cfg = IntegratorConfig(cfg.rtol / PERIOD_TOL_FACTOR, cfg.atol / PERIOD_TOL_FACTOR)
    segments, prefixes = _integrate_restarting(signal, lam, t_stop, cfg)
    if T is not None and not t_end / T * len(segments) < 2.0**53:
        raise DomainError(
            f"t_end / T = {t_end / T!r} must be below 2**53 / {len(segments)}, the segments per period"
        )
    return GroupTrajectory(segments, prefixes, ref, t_end, T)


class EulerTrajectory:
    """Dense Euler-angle chart solution, normalized so that eval_A(0) = I."""

    def __init__(self, t_end: float, theta0: float, _dense: Callable):
        self.t_end, self.theta0, self._dense = t_end, theta0, _dense

    def eval_angles(self, t: float) -> np.ndarray:
        """(phi, theta, psi) at time t."""
        t = _time_in_range(t, self.t_end)
        return np.asarray(self._dense(min(max(t, 0.0), self.t_end)), dtype=float)

    def eval_A(self, t) -> np.ndarray:
        """A(t), or the (m, 3, 3) stack of A at a 1-D ndarray of m times, one time after another."""
        ts = _time_list(t)
        if ts is not None:
            return np.array([self.eval_A(s) for s in ts]).reshape(-1, 3, 3)
        phi, theta, psi = self.eval_angles(t)
        return rot_x(self.theta0).T @ rot_z(psi) @ rot_x(theta) @ rot_z(phi)


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

    with phi(0) = psi(0) = 0 and theta(0) = theta0 in (0, pi). A
    right-hand-side evaluation with sin(theta) < 1e-6, near a pole or past
    one, raises GimbalLockError (theta0 = 0 or pi raises at the first one). Every
    accepted step ends in such an evaluation (its last stage is taken at the
    step's end point), so the solve stops with GimbalLockError rather than
    return an angle outside the chart. The dense-output stages 13-15 of a
    step other than the last run when the trajectory is first sampled inside
    that step (see :func:`rotwave.ode.solve_ivp`), so a GimbalLockError from
    one of them is raised by ``eval_angles`` / ``eval_A``, not by the solve.
    This formulation exists as an independent cross-check of the Z-equation
    integrator.
    """
    cfg = config or IntegratorConfig()
    _check_lam(lam)
    t_end = _positive(t_end, "t_end")
    theta = _real(theta0)
    if theta is None or not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta0 must be a real number in (0, pi), got {theta0!r}")

    def rhs(t, y):
        phi, theta, _psi = y
        s = math.sin(theta)
        if s < GIMBAL_TOL:
            raise GimbalLockError(f"theta reached the chart singularity at t={t!r}")
        fx, fy, fz = _check_forcing_value(signal.eval(t, lam), t)
        m = fy * math.cos(phi) + fx * math.sin(phi)
        return (
            fz - (math.cos(theta) / s) * m,
            -fy * math.sin(phi) + fx * math.cos(phi),
            m / s,
        )

    sol = solve_ivp(rhs, (0.0, t_end), (0.0, theta, 0.0), cfg.rtol, cfg.atol)
    if sol.status == -1:
        raise IntegrationError(f"euler-chart solve failed at t={sol.t[-1]!r}: {sol.message}")
    return EulerTrajectory(t_end, theta, sol.sol)
