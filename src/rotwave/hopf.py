"""Primary frequency vectors and periodic parts after a Hopf bifurcation.

Given the group trajectory A(t, lambda) forced with relative period
T(lambda), the primary frequency vector is

    X(lambda) = q(log A(T)) / T,

so A(T) = exp(X T) and the motion decomposes as A(t) = exp(X t) B(t) with
B T-periodic. Near a k:1 resonance the per-period rotation about the primary
axis hides k full turns that the ball-class logarithm cannot see; the lifted
frequency X^f restores them, giving a representative with |X^f| near
|X_0| instead of near zero.

For the nonresonant families the periodic part B^f of A(t) = exp(X^f t)
B^f(t) stays O(sqrt(lambda)). For the resonant families it does not: X^f
lifts along X, which is orthogonal to X_0 under orthogonal drift while A(t)
turns about X_0, and max_t |log B^f(t)| tends to pi (case2, example4) or
stays near 0.1 (case3) as lambda -> 0.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from enum import Enum

from ._numpy import lazy_numpy
from .bch import _BCH, _BCH_NAMES
from .errors import BracketError, DomainError, InternalInconsistency
from .flow import (
    ForcingSignal, GroupTrajectory, IntegratorConfig, _check_lam, _period, integrate_group,
)
from .ode import brentq
from .so3 import (
    _dot3, _exp_matrix, _finite, _float_array, _generated, _indented, _norm3, _positive, _q_map,
    _real, _vec3,
)

np = lazy_numpy(globals())

__all__ = [
    "FrequencyReport",
    "MotionClass",
    "PeriodicPart",
    "ResonanceClass",
    "ResonanceKind",
    "classify",
    "classify_resonance",
    "find_orthogonal_branch",
    "lifted_frequency",
    "periodic_part",
    "primary_frequency",
]

#: |X| below this is treated as exactly zero (pure integration noise at
#: resonance; the generic lifting formula would amplify the noise direction)
ZERO_X_TOL = 1e-9

#: resonance tolerance, relative to omega_bif
RES_TOL = 1e-9

#: threshold on <X_hat, X0_hat> for the orthogonal-drift label
ORTHO_TOL = 1e-6


class ResonanceKind(Enum):
    NONRESONANT = "NonResonant"
    RESONANT = "Resonant"
    DEGENERATE = "Degenerate"


class MotionClass(Enum):
    RIGID_ROTATION = "RigidRotation"
    MEANDER_O1 = "MeanderO1"
    SLOW_MEANDER_ABOUT_X0 = "SlowMeanderAboutX0"
    ORTHOGONAL_DRIFT = "OrthogonalDrift"
    PERIODIC_SOLUTION = "PeriodicSolution"


class ResonanceClass:
    """Arithmetic relation between |X_0| and the Hopf frequency."""

    def __init__(self, kind: ResonanceKind, k: int | None):
        self.kind, self.k = kind, k


class FrequencyReport:
    """Everything the motion classification knows about one (lambda) run."""

    def __init__(
        self, Xf: np.ndarray, resonance: ResonanceClass, ortho_defect: float | None,
        motion: MotionClass | None,
    ):
        self.Xf, self.resonance, self.ortho_defect, self.motion = Xf, resonance, ortho_defect, motion


class PeriodicPart:
    """Periodic factors of A(t) = exp(X t) B(t) = exp(X^f t) B^f(t); B^f is
    ``exp_rot(log_Bf(t))``."""

    def __init__(self, log_Bf: Callable[[float], np.ndarray], eval_B: Callable[[float], np.ndarray]):
        self.log_Bf, self.eval_B = log_Bf, eval_B


def classify_resonance(x0_norm: float, omega_bif: float) -> ResonanceClass:
    """Classify |X_0| against multiples of the Hopf frequency.

    Resonant means ``|x0_norm - k * omega_bif| < RES_TOL * omega_bif`` for
    some integer k >= 1; x0_norm == 0 is Degenerate. DomainError unless
    omega_bif is positive, x0_norm nonnegative and their ratio finite.
    """
    omega_bif = _positive(omega_bif, "omega_bif")
    x = _real(x0_norm)
    if x is None or not 0.0 <= x / omega_bif < math.inf:
        raise DomainError(f"x0_norm / omega_bif must be finite and nonnegative, got {x0_norm!r}")
    if x == 0.0:
        return ResonanceClass(ResonanceKind.DEGENERATE, None)
    k = int(round(x / omega_bif))
    if k >= 1 and abs(x - k * omega_bif) < RES_TOL * omega_bif:
        return ResonanceClass(ResonanceKind.RESONANT, k)
    return ResonanceClass(ResonanceKind.NONRESONANT, None)


def _winding(x0_norm: float, T0: float) -> int:
    """Winding count: full turns of the primary rotation |x0| per Hopf period T0."""
    turns = x0_norm * T0 / (2.0 * math.pi) + 0.5 * RES_TOL
    if not turns < math.inf:
        raise DomainError(f"|x0| T0 / (2 pi) must be finite, got {turns!r}")
    return int(math.floor(turns))


def primary_frequency(traj: GroupTrajectory, T: float) -> np.ndarray:
    """Frequency vector X with ``exp_rot(X * T) = A(T)``, hemisphere-reduced
    around the trajectory's ``ref_dir``.

    Parameters
    ----------
    traj : GroupTrajectory
        Must cover [0, T].
    T : float
        Relative period of the forcing.
    """
    return np.array(_primary_frequency(traj, T))


def _primary_frequency(traj: GroupTrajectory, T: float) -> tuple:
    """Scalar form of :func:`primary_frequency`: X as a float triple."""
    T = _positive(T, "T")
    return tuple(a / T for a in _q_map(traj._class_vector(T), traj.ref_dir))


def lifted_frequency(
    X: np.ndarray,
    T0: float,
    x0: np.ndarray,
    omega_lambda: float,
    res: ResonanceClass,
) -> np.ndarray:
    """Restore the winding hidden by the ball-class logarithm near resonance.

    The winding count is ``k = floor(|x0| T0 / (2 pi) + RES_TOL / 2)``; the
    lifted representative is ``(|X| + k |omega_lambda|) X / |X|``, or
    ``k |omega_lambda| x0 / |x0|`` when X vanished at exact resonance.
    The lift restores |X^f| near |x0|; only for nonresonant classes does it
    also leave a periodic part of order sqrt(lambda) (see the module
    docstring).

    Raises
    ------
    DomainError
        If an input is misshaped or not finite, or T0 is not positive.
    InternalInconsistency
        If X vanishes in a nonresonant class (the log cannot lose a full turn
        off resonance, so a zero X there indicates an upstream bug).
    """
    X = _float_array(X, (3,), "X")
    x0 = _float_array(x0, (3,), "x0")
    return np.array(_lifted_frequency(X.tolist(), T0, x0.tolist(), omega_lambda, res))


def _lifted_frequency(X, T0: float, x0, omega_lambda: float, res: ResonanceClass) -> tuple:
    """Scalar form of :func:`lifted_frequency` on float triples, whose shapes it does not check."""
    T0 = _positive(T0, "T0")
    w = _finite(omega_lambda, "omega_lambda")
    x0_norm = _norm3(x0)
    k = _winding(x0_norm, T0)
    n = _norm3(X)
    if n > ZERO_X_TOL:
        s = (n + k * abs(w)) / n
        return tuple(s * a for a in X)
    if res.kind is ResonanceKind.RESONANT:
        if x0_norm == 0.0:
            raise InternalInconsistency("resonant class with |x0| = 0")
        s = k * abs(w)
        return tuple(s * (a / x0_norm) for a in x0)
    raise InternalInconsistency(
        f"|X| = {n:.3e} vanished in a {res.kind.value} class; "
        "the logarithm cannot lose a turn off resonance"
    )


def periodic_part(
    traj: GroupTrajectory, X: np.ndarray, Xf: np.ndarray, T: float
) -> PeriodicPart:
    """Periodic factors B and B^f of the decomposition A(t) = exp(X t) B(t).

    ``log_Bf(t)`` is the ball-class representative of BCH(-X^f t, log A(t)).
    No hemisphere reduction is applied to it: for nonresonant classes the
    decomposition exhibits a uniformly small exponent (O(sqrt(lambda)) near
    the bifurcation), and that exponent's direction legitimately crosses
    every hemisphere as the forcing oscillates, so reducing it through the
    antipode would replace small norms by values near 2*pi. For resonant
    classes ``|log_Bf|`` is not small (see the module docstring).

    Each sample composes ``-X t`` with the class of A(t) on Python floats
    through the same chain as ``traj.eval_A``, and shares its cache: a time
    already sampled costs one BCH, reading only the record's class vector,
    and a cold one caches the whole record, A's nine entries included, so a
    later ``eval_A`` there is a lookup. ``log_Bf`` and ``eval_B``
    are one sampler generated at the first call (:func:`_periodic_sampler`):
    the BCH is :data:`rotwave.bch._BCH`, the formula's one home, spliced in
    inline, and a float time reads its cache record before any check, as
    ``eval_A`` does. Both the class vector and ``-X t`` are computed with the
    float that the time check returns, so any number t gives the bits of
    ``float(t)``. ``T`` is checked, not used: it stays for callers that pass it
    (``perfbench/jobs.py``).
    """
    neg_x = [-a for a in _vec3(X)]
    neg_xf = [-a for a in _vec3(Xf)]
    _positive(T, "T")
    sampler = _periodic_sampler()
    return PeriodicPart(sampler(traj, neg_xf, np.array), sampler(traj, neg_x, _exp_matrix))


@functools.lru_cache(maxsize=None)
def _periodic_sampler() -> Callable:
    """``sampler(traj, neg, out) -> sample``, compiled at the first :func:`periodic_part`.

    ``sample(t)`` is ``out`` of the ball vector of ``bch(neg * t, traj.class_at(t).vector)``,
    the float triple ``neg`` scaled by the checked time. A float time in the sample-time
    cache is a checked one, and its record is read first, for its class vector alone; any
    other time goes through :func:`_time_in_range` and the trajectory's per-time chain, which
    caches it. The BCH runs inline, and so does the ball check: a product whose norm, the
    expression of :func:`_norm3`, is at most pi is its own ball vector, and only one past pi
    (a snap onto the boundary sphere, or a refusal, NaN included) goes to
    :func:`_ball_vector`. ``out`` takes the float triple: ``np.array`` for ``log_Bf``,
    ``_exp_matrix`` for ``eval_B``."""
    source = f"""\
def sampler(traj, neg, out):
    samples, t_end, record_at = traj._samples, traj.t_end, traj._record
    n0, n1, n2 = neg
    def sample(t):
        record = samples.get(t) if type(t) is float else None
        if record is None:
            t = _time_in_range(t, t_end)
            record = record_at(t)
        x0, x1, x2 = n0 * t, n1 * t, n2 * t
        y0, y1, y2 = record[0]
{_indented(_BCH, 2)}        if sqrt(r0 * r0 + r1 * r1 + r2 * r2) <= pi:
            return out((r0, r1, r2))
        return out(_ball_vector((r0, r1, r2)))
    return sample
"""
    return _generated(source, "<periodic part sampler>", **_BCH_NAMES)["sampler"]


def classify(
    x0: np.ndarray,
    omega_bif: float,
    X: np.ndarray,
    T: float,
    lam: float,
) -> FrequencyReport:
    """Assemble the frequency report and motion label for one run.

    Label precedence: lam == 0 is RigidRotation; |X| T in 2 pi Z (within
    1e-9) is PeriodicSolution; nonresonant classes are MeanderO1; resonant
    classes split into OrthogonalDrift (|<X_hat, x0_hat>| < ORTHO_TOL) and
    SlowMeanderAboutX0. A degenerate class (|x0| = 0) gets motion None.

    OrthogonalDrift asks for |<X_hat, x0_hat>| < ORTHO_TOL = 1e-6: orthogonality
    as it holds on a tuned branch (mu = mu*, :func:`find_orthogonal_branch`),
    not at leading order in lambda. A generic one-parameter 1:1 wave at
    mu = 0 has a defect of O(sqrt(lambda)) (0.47 to 2.0 sqrt(lambda) on seeds
    0-4 of the tests' generic normal-form family at k = 1), so it earns the
    label only below lambda ~ 3e-12 (2.5e-13 to 4.6e-12 by seed), and
    SlowMeanderAboutX0 is the label to expect at mu = 0.

    DomainError unless lam is nonnegative and finite, T positive and finite
    and |X| T finite. The labels and X^f come from :func:`_classify` on
    Python floats; this wrapper checks the arrays and returns X^f as an
    ndarray.
    """
    x0 = _float_array(x0, (3,), "x0")
    X = _float_array(X, (3,), "X")
    Xf, res, ortho, motion = _classify(x0.tolist(), omega_bif, X.tolist(), T, lam)
    return FrequencyReport(np.array(Xf), res, ortho, motion)


def _classify(x0, omega_bif: float, X, T: float, lam: float) -> tuple:
    """Scalar form of :func:`classify` on float triples, whose shapes it does not check:
    ``(Xf, resonance, ortho_defect, motion)``, Xf a float triple."""
    T = _positive(T, "T")
    lam_f = _finite(lam, "lambda", nonnegative=True)
    x0_norm = _norm3(x0)
    res = classify_resonance(x0_norm, omega_bif)
    T0 = 2.0 * math.pi / omega_bif
    n = _norm3(X)  # inf when a square overflows
    if not n * T < math.inf:
        raise DomainError(f"|X| T must be finite, got |X| = {n!r} and T = {T!r}")

    if res.kind is ResonanceKind.DEGENERATE:
        return tuple(X), res, None, None

    Xf = _lifted_frequency(X, T0, x0, 2.0 * math.pi / T, res)
    ortho = _dot3(X, x0) / (n * x0_norm) if n > 0.0 else None

    if lam_f == 0.0:
        motion = MotionClass.RIGID_ROTATION
    elif abs(n * T - 2.0 * math.pi * round(n * T / (2.0 * math.pi))) < 1e-9:
        motion = MotionClass.PERIODIC_SOLUTION
    elif res.kind is ResonanceKind.NONRESONANT:
        motion = MotionClass.MEANDER_O1
    elif abs(ortho) < ORTHO_TOL:
        motion = MotionClass.ORTHOGONAL_DRIFT
    else:
        motion = MotionClass.SLOW_MEANDER_ABOUT_X0
    return Xf, res, ortho, motion


def _period_class(family, lam: float, mu: float, ref_dir, config=None) -> tuple[tuple, float]:
    """Unreduced ball vector of log A(T) for ``family(lam, mu)``, as a float triple, and T."""
    sig = family(lam, mu)
    T = _period(sig, lam)
    if T is None:
        raise DomainError("the drift objective needs a periodic forcing; the signal has no period")
    traj = integrate_group(sig, lam, T, config, ref_dir=ref_dir)
    return traj._class_vector(T), T


def find_orthogonal_branch(
    family: Callable[[float, float], ForcingSignal],
    lam: float,
    mu_bracket: tuple[float, float],
    x0: np.ndarray,
    config: IntegratorConfig | None = None,
) -> float:
    """Parameter value mu* at which the drift is orthogonal to the primary axis.

    The objective is ``g(mu) = <Z(T)/T, x0_hat>`` evaluated on the unreduced
    ball representative of the per-period logarithm (the hemisphere map
    would fold sign information and can leave g one-signed across the
    bracket). Roots are located by a bracketing Brent iteration to an
    absolute tolerance of 1e-13.

    Parameters
    ----------
    family : callable (lam, mu) -> ForcingSignal
    lam : float
        Bifurcation parameter; lam == 0 returns 0.0 exactly (the whole
        mu-axis is orthogonal there).
    mu_bracket : (float, float)
        Search interval; g must change sign across it.
    x0 : array_like
        Primary axis vector (nonzero).

    Raises
    ------
    BracketError
        If g has the same sign at both ends of the bracket.
    """
    return _orthogonal_branch(family, lam, mu_bracket, x0, config)[0]


def _orthogonal_branch(family, lam, mu_bracket, x0, config=None) -> tuple[float, tuple | None]:
    """:func:`find_orthogonal_branch`'s mu* and the period class ``(z, T)`` that its
    root-find integrated there; None at lam == 0, where nothing is integrated."""
    x0 = _vec3(x0)
    n0 = _norm3(x0)
    if n0 == 0.0:
        raise DomainError("x0 must be nonzero")
    u0 = tuple(a / n0 for a in x0)
    _check_lam(lam)
    try:
        a, b = () if isinstance(mu_bracket, (str, bytes)) else map(_real, mu_bracket)
    except (TypeError, ValueError):
        a = b = None
    if a is None or b is None or not a < b:
        raise DomainError(f"mu_bracket must be two real numbers a < b, got {mu_bracket!r}")
    if lam == 0.0:
        return 0.0, None
    classes = {}  # mu -> (z, T); brentq returns a point it evaluated

    def g(mu: float) -> float:
        z, T = classes[mu] = _period_class(family, lam, mu, u0, config)
        return _dot3(z, u0) / T

    ga, gb = g(a), g(b)
    if ga != 0.0 and gb != 0.0 and (ga > 0.0) == (gb > 0.0):
        raise BracketError(
            f"objective does not change sign on [{a!r}, {b!r}]: g(a)={ga:.3e}, g(b)={gb:.3e}"
        )
    mu = brentq(g, a, b, 1e-13, fa=ga, fb=gb)
    return mu, classes[mu]
