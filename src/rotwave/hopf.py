"""Primary frequency vectors and periodic parts after a Hopf bifurcation.

Given the group trajectory A(t, lambda) forced with relative period
T(lambda), the primary frequency vector is

    X(lambda) = q(log A(T)) / T,

so A(T) = exp(X T) and the motion decomposes as A(t) = exp(X t) B(t) with
B T-periodic. Near a k:1 resonance the per-period rotation about the primary
axis hides k full turns that the ball-class logarithm cannot see; the lifted
frequency X^f restores them, giving a representative with |X^f| near
|X_0| instead of near zero and a periodic part that stays O(sqrt(lambda)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .bch import _bch_full
from .errors import BracketError, DomainError, InternalInconsistency
from .flow import ForcingSignal, GroupTrajectory, IntegratorConfig, _period, integrate_group
from .ode import brentq
from .so3 import _as_vec3, _ball_vector, _exp_matrix, _finite3, q_map

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


@dataclass(frozen=True)
class ResonanceClass:
    """Arithmetic relation between |X_0| and the Hopf frequency."""

    kind: ResonanceKind
    k: int | None
    omega_bif: float
    x0_norm: float


@dataclass(frozen=True)
class FrequencyReport:
    """Everything the motion classification knows about one (lambda) run."""

    lam: float
    X: np.ndarray
    Xf: np.ndarray
    resonance: ResonanceClass
    k_winding: int
    ortho_defect: float | None
    motion: MotionClass | None


@dataclass(frozen=True)
class PeriodicPart:
    """Periodic factors of A(t) = exp(X t) B(t) = exp(X^f t) B^f(t)."""

    log_Bf: Callable[[float], np.ndarray]
    eval_Bf: Callable[[float], np.ndarray]
    eval_B: Callable[[float], np.ndarray]
    T: float


def classify_resonance(x0_norm: float, omega_bif: float) -> ResonanceClass:
    """Classify |X_0| against multiples of the Hopf frequency.

    Resonant means ``|x0_norm - k * omega_bif| < RES_TOL * omega_bif`` for
    some integer k >= 1; x0_norm == 0 is Degenerate.
    """
    if omega_bif <= 0.0:
        raise DomainError("omega_bif must be positive")
    if x0_norm < 0.0:
        raise DomainError("x0_norm must be nonnegative")
    if x0_norm == 0.0:
        return ResonanceClass(ResonanceKind.DEGENERATE, None, omega_bif, x0_norm)
    k = int(round(x0_norm / omega_bif))
    if k >= 1 and abs(x0_norm - k * omega_bif) < RES_TOL * omega_bif:
        return ResonanceClass(ResonanceKind.RESONANT, k, omega_bif, x0_norm)
    return ResonanceClass(ResonanceKind.NONRESONANT, None, omega_bif, x0_norm)


def _winding(x0_norm: float, T0: float) -> int:
    """Winding count: full turns of the primary rotation |x0| per Hopf period T0."""
    return int(math.floor(x0_norm * T0 / (2.0 * np.pi) + 0.5 * RES_TOL))


def primary_frequency(
    traj: GroupTrajectory, T: float, ref_dir: np.ndarray | None = None
) -> np.ndarray:
    """Frequency vector X with ``exp_rot(X * T) = A(T)``, hemisphere-reduced.

    Parameters
    ----------
    traj : GroupTrajectory
        Must cover [0, T].
    T : float
        Relative period of the forcing.
    ref_dir : array_like, optional
        Hemisphere reference; defaults to the trajectory's own.
    """
    if not T > 0.0:
        raise DomainError("T must be positive")
    if T > traj.t_end + 1e-9:
        raise DomainError(f"trajectory covers [0, {traj.t_end!r}], cannot evaluate at T={T!r}")
    ref = traj.ref_dir if ref_dir is None else ref_dir
    return q_map(traj.class_at(T), ref) / T


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

    Raises
    ------
    InternalInconsistency
        If X vanishes in a nonresonant class (the log cannot lose a full turn
        off resonance, so a zero X there indicates an upstream bug).
    """
    X = np.asarray(X, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if not T0 > 0.0:
        raise DomainError("T0 must be positive")
    x0_norm = float(np.linalg.norm(x0))
    k = _winding(x0_norm, T0)
    n = float(np.linalg.norm(X))
    if n > ZERO_X_TOL:
        return ((n + k * abs(omega_lambda)) / n) * X
    if res.kind is ResonanceKind.RESONANT:
        if x0_norm == 0.0:
            raise InternalInconsistency("resonant class with |x0| = 0")
        return (k * abs(omega_lambda)) * (x0 / x0_norm)
    raise InternalInconsistency(
        f"|X| = {n:.3e} vanished in a {res.kind.value} class; "
        "the logarithm cannot lose a turn off resonance"
    )


def periodic_part(
    traj: GroupTrajectory, X: np.ndarray, Xf: np.ndarray, T: float
) -> PeriodicPart:
    """Periodic factors B and B^f of the decomposition A(t) = exp(X t) B(t).

    ``log_Bf(t)`` is the ball-class representative of BCH(-X^f t, log A(t)).
    No hemisphere reduction is applied to it: the decomposition exists to
    exhibit a uniformly small exponent (O(sqrt(lambda)) near the
    bifurcation), and that exponent's direction legitimately crosses every
    hemisphere as the forcing oscillates, so reducing it through the
    antipode would replace small norms by values near 2*pi.

    Each sample composes ``-X t`` with the class of A(t) on Python floats
    through the same chain as ``traj.eval_A``, and shares its cached class
    vector: a time that ``eval_A`` has already sampled costs one BCH.
    """
    neg_x = (-_as_vec3(X)).tolist()
    neg_xf = (-_as_vec3(Xf)).tolist()
    if not T > 0.0:
        raise DomainError("T must be positive")

    def log_b(neg: list[float], t: float):
        """Ball vector of ``bch(neg * t, class_at(t).vector)`` as a float triple."""
        w = traj._class_vector(t)
        return _ball_vector(_bch_full(_finite3([a * t for a in neg]), w)[0])

    def log_bf(t: float) -> np.ndarray:
        return np.array(log_b(neg_xf, t))

    def eval_bf(t: float) -> np.ndarray:
        return _exp_matrix(log_b(neg_xf, t))

    def eval_b(t: float) -> np.ndarray:
        return _exp_matrix(log_b(neg_x, t))

    return PeriodicPart(log_bf, eval_bf, eval_b, T)


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
    """
    x0 = np.asarray(x0, dtype=float)
    X = np.asarray(X, dtype=float)
    if not T > 0.0:
        raise DomainError("T must be positive")
    x0_norm = float(np.linalg.norm(x0))
    res = classify_resonance(x0_norm, omega_bif)
    T0 = 2.0 * np.pi / omega_bif
    k_w = _winding(x0_norm, T0)
    n = float(np.linalg.norm(X))

    if res.kind is ResonanceKind.DEGENERATE:
        return FrequencyReport(lam, X, X.copy(), res, 0, None, None)

    Xf = lifted_frequency(X, T0, x0, 2.0 * np.pi / T, res)
    ortho = float(X @ x0) / (n * x0_norm) if n > 0.0 else None

    if lam == 0.0:
        motion = MotionClass.RIGID_ROTATION
    elif abs(n * T - 2.0 * np.pi * round(n * T / (2.0 * np.pi))) < 1e-9:
        motion = MotionClass.PERIODIC_SOLUTION
    elif res.kind is ResonanceKind.NONRESONANT:
        motion = MotionClass.MEANDER_O1
    elif abs(ortho) < ORTHO_TOL:
        motion = MotionClass.ORTHOGONAL_DRIFT
    else:
        motion = MotionClass.SLOW_MEANDER_ABOUT_X0
    return FrequencyReport(lam, X, Xf, res, k_w, ortho, motion)


def _period_class(family, lam: float, mu: float, ref_dir, config=None) -> tuple[np.ndarray, float]:
    """Unreduced ball representative of log A(T) for ``family(lam, mu)``, and T."""
    sig = family(lam, mu)
    T = _period(sig, lam)
    if T is None:
        raise DomainError("the drift objective needs a periodic forcing; the signal has no period")
    traj = integrate_group(sig, lam, T, config, ref_dir=ref_dir)
    return traj.class_at(T).vector, T


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
    x0 = np.asarray(x0, dtype=float)
    n0 = float(np.linalg.norm(x0))
    if n0 == 0.0:
        raise DomainError("x0 must be nonzero")
    u0 = x0 / n0
    if lam == 0.0:
        return 0.0
    a, b = float(mu_bracket[0]), float(mu_bracket[1])
    if not a < b:
        raise DomainError("mu_bracket must satisfy a < b")

    def g(mu: float) -> float:
        z, T = _period_class(family, lam, mu, u0, config)
        return float(z @ u0) / T

    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga > 0.0) == (gb > 0.0):
        raise BracketError(
            f"objective does not change sign on [{a!r}, {b!r}]: g(a)={ga:.3e}, g(b)={gb:.3e}"
        )
    return brentq(g, a, b, 1e-13, fa=ga, fb=gb)
