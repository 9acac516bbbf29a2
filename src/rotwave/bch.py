"""Closed-form Baker-Campbell-Hausdorff composition on so(3).

``bch(X, Y)`` returns the ball class [W] with ``exp_rot(W) = exp_rot(X) @
exp_rot(Y)`` for arbitrary axis vectors X, Y (no smallness assumption). The
composition runs on the unit quaternions of the two factors (Engo, "On the
BCH-formula in so(3)", BIT 41, 2001), in Python floats; no rotation matrix
is formed. With half-angles hx = |X|/2, hy = |Y|/2 and cos(ang) the cosine
between the axes, the product quaternion has

    e  = cos(hx)cos(hy) - sin(hx)sin(hy)cos(ang)   (scalar part)
    a1 = sin(hx)cos(hy),  b1 = cos(hx)sin(hy),  c1 = sin(hx)sin(hy)
    q  = (a1/|X|) X + (b1/|Y|) Y + (c1/(|X||Y|)) (X x Y)   (vector part)

and d1 = |q| = |sin(theta_q/2)|. d1 is taken as the norm of q itself, which
keeps its absolute accuracy when the product is near the identity. The
product angle is theta_q = 2*atan2(d1, e), folded into [0, pi] for the ball
representative. (The equivalent asin of ``d = 2*d1*|e| = |sin(theta_q)|``
loses half the significant digits near d = 1, i.e. near quarter-turn
products, so the atan2 form is used throughout.) The result is the explicit
linear combination

    W = alpha * X + beta * Y + gamma * (X x Y).

The branch is read off the same pair (d1, e): the product is the identity
when ``|prod - I|_F = 2*sqrt(2)*d1 <= BRANCH_TOL``, a half turn when the ball
angle is within BRANCH_TOL of pi, and otherwise generic, split by the sign
of ``cos(theta_q) = e^2 - d1^2``. A generic product therefore has
d1 > BRANCH_TOL / (2*sqrt(2)), so the division by d1 is always well posed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .so3 import BallClass, _as_vec3

__all__ = ["BchBranch", "BchBreakdown", "bch", "bch_breakdown", "bch_fold"]

#: branch-dispatch tolerance on cos(theta_prod) and on identity detection
BRANCH_TOL = 1e-10

_ZERO3 = np.zeros(3)

#: |prod - I|_F per unit of d1
_FROB_PER_D1 = 2.0 * math.sqrt(2.0)


class BchBranch(Enum):
    GENERIC_POSITIVE = "GenericPositive"
    GENERIC_NON_POSITIVE = "GenericNonPositive"
    HALF_TURN_PRODUCT = "HalfTurnProduct"
    IDENTITY_PRODUCT = "IdentityProduct"


@dataclass(frozen=True)
class BchBreakdown:
    """Coefficients and intermediates of one BCH evaluation.

    The result vector equals ``alpha * X + beta * Y + gamma * cross(X, Y)``
    exactly (same floating-point operations).
    """

    alpha: float
    beta: float
    gamma: float
    branch: BchBranch
    e: float
    a1: float
    b1: float
    c1: float
    d1: float
    d: float
    s: float


def _bch_full(x, y) -> tuple[tuple[float, float, float], tuple]:
    """BCH of two float triples: the result triple and the BchBreakdown fields."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    nx = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    ny = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
    hx, hy = 0.5 * nx, 0.5 * ny
    chx, shx = math.cos(hx), math.sin(hx)
    chy, shy = math.cos(hy), math.sin(hy)
    if nx > 0.0 and ny > 0.0:
        cos_ang = (x0 * y0 + x1 * y1 + x2 * y2) / (nx * ny)
        cos_ang = min(1.0, max(-1.0, cos_ang))
    else:
        cos_ang = 0.0  # unused: the degenerate terms vanish with sin(0)

    e = chx * chy - shx * shy * cos_ang
    a1 = shx * chy
    b1 = chx * shy
    c1 = shx * shy

    h_alpha = a1 / nx if nx > 0.0 else chy
    h_beta = b1 / ny if ny > 0.0 else chx
    if nx > 0.0 and ny > 0.0:
        h_gamma = c1 / (nx * ny)
    elif ny > 0.0:
        h_gamma = shy / ny
    elif nx > 0.0:
        h_gamma = shx / nx
    else:
        h_gamma = 1.0

    # X x Y in numpy.cross's operation order, so the breakdown contract holds
    k0 = x1 * y2 - x2 * y1
    k1 = x2 * y0 - x0 * y2
    k2 = x0 * y1 - x1 * y0
    q0 = h_alpha * x0 + h_beta * y0 + h_gamma * k0
    q1 = h_alpha * x1 + h_beta * y1 + h_gamma * k1
    q2 = h_alpha * x2 + h_beta * y2 + h_gamma * k2
    d1 = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2)
    d = 2.0 * d1 * abs(e)
    s = 1.0 if e >= 0.0 else -1.0

    if _FROB_PER_D1 * d1 <= BRANCH_TOL:
        fields = (0.0, 0.0, 0.0, BchBranch.IDENTITY_PRODUCT, e, a1, b1, c1, d1, d, s)
        return (0.0, 0.0, 0.0), fields

    # Ball angle of the product from the quaternion pair (d1, e): atan2 is
    # uniformly well conditioned, while asin(d) near d = 1 (quarter-turn
    # products) and arccos near -1 (half-turn products) both lose ~sqrt(eps).
    theta_q = 2.0 * math.atan2(d1, e)
    theta_ball = theta_q if theta_q <= math.pi else 2.0 * math.pi - theta_q

    if theta_ball >= math.pi - BRANCH_TOL:
        k = math.pi
        branch = BchBranch.HALF_TURN_PRODUCT
    else:
        k = s * theta_ball / d1
        if e * e - d1 * d1 > BRANCH_TOL:
            branch = BchBranch.GENERIC_POSITIVE
        else:
            branch = BchBranch.GENERIC_NON_POSITIVE

    alpha = k * h_alpha
    beta = k * h_beta
    gamma = k * h_gamma
    result = (
        alpha * x0 + beta * y0 + gamma * k0,
        alpha * x1 + beta * y1 + gamma * k1,
        alpha * x2 + beta * y2 + gamma * k2,
    )
    return result, (alpha, beta, gamma, branch, e, a1, b1, c1, d1, d, s)


def bch(x: np.ndarray, y: np.ndarray) -> BallClass:
    """Ball class of ``exp_rot(x) @ exp_rot(y)``.

    Parameters
    ----------
    x, y : array_like, shape (3,)
        Axis vectors of any magnitude.

    Returns
    -------
    BallClass
        [W] with ``exp_rot(W)`` equal to the product (homomorphism property).
    """
    w, _ = _bch_full(_as_vec3(x).tolist(), _as_vec3(y).tolist())
    return BallClass(np.array(w))


def bch_breakdown(x: np.ndarray, y: np.ndarray) -> BchBreakdown:
    """Branch, coefficients, and quaternion intermediates of ``bch(x, y)``."""
    _, fields = _bch_full(_as_vec3(x).tolist(), _as_vec3(y).tolist())
    return BchBreakdown(*fields)


def bch_fold(parts: Iterable[np.ndarray] | Sequence[np.ndarray]) -> BallClass:
    """Left fold of :func:`bch` over a sequence of axis vectors.

    ``bch_fold([z1, z2, ..., zn])`` is the class of
    ``exp_rot(z1) @ exp_rot(z2) @ ... @ exp_rot(zn)`` (earliest factor
    leftmost). An empty sequence raises DomainError; a single element is
    reduced into the ball.
    """
    it = iter(parts)
    try:
        first = next(it)
    except StopIteration:
        raise DomainError("bch_fold requires at least one element") from None
    acc = bch(first, _ZERO3)
    for z in it:
        acc = bch(acc.vector, z)
    return acc
