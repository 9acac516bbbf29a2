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

The scalar formula is written once, as the straight-line source fragment
``_BCH``: import generates ``_bch_full``, behind :func:`bch` and
:func:`bch_breakdown`, from it, and :func:`rotwave.hopf.periodic_part` splices
it into its sampler. ``_bch_arrays`` runs the same operations over arrays.
"""
from __future__ import annotations

from math import atan2, cos, pi, sin, sqrt
from enum import Enum

from ._numpy import lazy_numpy
from .errors import DomainError
from .so3 import BallClass, _cross3, _dot_columns, _generated, _indented, _mapped, _vec3

np = lazy_numpy(globals())

__all__ = ["BchBranch", "BchBreakdown", "bch", "bch_breakdown"]

#: branch-dispatch tolerance on cos(theta_prod) and on identity detection
BRANCH_TOL = 1e-10

#: |prod - I|_F per unit of d1
_FROB_PER_D1 = 2.0 * sqrt(2.0)


class BchBranch(Enum):
    GENERIC_POSITIVE = "GenericPositive"
    GENERIC_NON_POSITIVE = "GenericNonPositive"
    HALF_TURN_PRODUCT = "HalfTurnProduct"
    IDENTITY_PRODUCT = "IdentityProduct"


# the members as module constants for _BCH: reading one off the Enum class costs ~0.2 us
_GENERIC_POSITIVE, _GENERIC_NON_POSITIVE, _HALF_TURN_PRODUCT, _IDENTITY_PRODUCT = BchBranch


class BchBreakdown:
    """Coefficients and intermediates of one BCH evaluation.

    The result vector equals ``alpha * X + beta * Y + gamma * cross(X, Y)``
    exactly (same floating-point operations).
    """

    def __init__(
        self, alpha: float, beta: float, gamma: float, branch: BchBranch,
        e: float, a1: float, b1: float, c1: float, d1: float, d: float, s: float,
    ):
        self.alpha, self.beta, self.gamma, self.branch = alpha, beta, gamma, branch
        self.e, self.a1, self.b1, self.c1, self.d1, self.d, self.s = e, a1, b1, c1, d1, d, s


#: Engo's closed form as straight-line source: reads x0..x2 and y0..y2, sets r0..r2, the
#: result, and the breakdown locals alpha, beta, gamma, branch, e, a1, b1, c1, d1, d and s.
#: DomainError unless both squared norms are finite (an infinite angle has no sine). The
#: quaternion is :func:`_quaternion`'s, X x Y is ``_cross3``'s (numpy.cross's operation order,
#: so the breakdown contract holds) and both combinations are :func:`_combine`'s, each float
#: operation in the order that those helpers take.
_BCH = """\
nx = sqrt(x0 * x0 + x1 * x1 + x2 * x2)
ny = sqrt(y0 * y0 + y1 * y1 + y2 * y2)
if not isfinite(nx + ny):
    raise DomainError("expected a finite 3-vector")
hx, hy = 0.5 * nx, 0.5 * ny
chx, shx = cos(hx), sin(hx)
chy, shy = cos(hy), sin(hy)
a1, b1, c1 = shx * chy, chx * shy, shx * shy
if nx > 0.0 and ny > 0.0:
    cos_ang = (x0 * y0 + x1 * y1 + x2 * y2) / (nx * ny)
    # min(1.0, max(-1.0, cos_ang)), NaN included
    cos_ang = (cos_ang if cos_ang < 1.0 else 1.0) if cos_ang > -1.0 else -1.0
    h_alpha, h_beta, h_gamma = a1 / nx, b1 / ny, c1 / (nx * ny)
else:
    cos_ang = 0.0  # unused: the degenerate terms vanish with sin(0)
    h_alpha = a1 / nx if nx > 0.0 else chy
    h_beta = b1 / ny if ny > 0.0 else chx
    h_gamma = shy / ny if ny > 0.0 else shx / nx if nx > 0.0 else 1.0
e = chx * chy - c1 * cos_ang
k0, k1, k2 = x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0
q0 = h_alpha * x0 + h_beta * y0 + h_gamma * k0
q1 = h_alpha * x1 + h_beta * y1 + h_gamma * k1
q2 = h_alpha * x2 + h_beta * y2 + h_gamma * k2
d1 = sqrt(q0 * q0 + q1 * q1 + q2 * q2)
d = 2.0 * d1 * abs(e)
s = 1.0 if e >= 0.0 else -1.0
if _FROB_PER_D1 * d1 <= BRANCH_TOL:
    alpha = beta = gamma = r0 = r1 = r2 = 0.0
    branch = _IDENTITY_PRODUCT
else:
    # Ball angle of the product from the quaternion pair (d1, e): atan2 is
    # uniformly well conditioned, while asin(d) near d = 1 (quarter-turn
    # products) and arccos near -1 (half-turn products) both lose ~sqrt(eps).
    theta_q = 2.0 * atan2(d1, e)
    theta_ball = theta_q if theta_q <= pi else 2.0 * pi - theta_q
    if theta_ball >= pi - BRANCH_TOL:
        kq = pi
        branch = _HALF_TURN_PRODUCT
    else:
        kq = s * theta_ball / d1
        if e * e - d1 * d1 > BRANCH_TOL:
            branch = _GENERIC_POSITIVE
        else:
            branch = _GENERIC_NON_POSITIVE
    alpha, beta, gamma = kq * h_alpha, kq * h_beta, kq * h_gamma
    r0 = alpha * x0 + beta * y0 + gamma * k0
    r1 = alpha * x1 + beta * y1 + gamma * k1
    r2 = alpha * x2 + beta * y2 + gamma * k2
"""

#: the names that :data:`_BCH` reads besides math's and :mod:`rotwave.so3`'s, for the kernels
#: generated from it
_BCH_NAMES = dict(
    BRANCH_TOL=BRANCH_TOL, _FROB_PER_D1=_FROB_PER_D1, _GENERIC_POSITIVE=_GENERIC_POSITIVE,
    _GENERIC_NON_POSITIVE=_GENERIC_NON_POSITIVE, _HALF_TURN_PRODUCT=_HALF_TURN_PRODUCT,
    _IDENTITY_PRODUCT=_IDENTITY_PRODUCT,
)

_bch_full = _generated(
    "def _bch_full(x, y):\n"
    '    """BCH of two float triples: the result triple and the BchBreakdown fields. The\n'
    "    formula lives in rotwave.bch._BCH, from which this function is generated; DomainError\n"
    '    unless both squared norms are finite."""\n'
    "    x0, x1, x2 = x\n    y0, y1, y2 = y\n" + _indented(_BCH, 1)
    + "    return (r0, r1, r2), (alpha, beta, gamma, branch, e, a1, b1, c1, d1, d, s)\n",
    "<bch kernel>", **_BCH_NAMES,
)["_bch_full"]


def _quaternion(chx, shx, chy, shy, cos_ang):
    """e, a1, b1 and c1 of the product quaternion over arrays, as :func:`_bch_full` forms them."""
    return chx * chy - shx * shy * cos_ang, shx * chy, chx * shy, shx * shy


def _combine(x, y, k, a, b, c):
    """``a x + b y + c k`` for (3, m) arrays x, y and k (X x Y) and 1-D a, b and c, as
    :func:`_bch_full` forms it."""
    return a * x + b * y + c * k


def _bch_arrays(xs, which, y):
    """:func:`_bch_full`'s result over the columns of (3, m) arrays, and the mask of its generic
    columns.

    The left factors are ``x = xs[:, which]``: a few distinct vectors (the
    prefixes of a batch, the columns of xs), whose norms and half-angle cosines
    and sines are taken once each. The zero-norm branches run through
    ``np.where``, so a zero prefix stays in the mask. An identity or half-turn
    product, or a non-finite one, is left out of it for the caller to redo alone.
    """
    nxs = np.sqrt(_dot_columns(xs, xs))
    x = xs.take(which, axis=1)
    nx, ny = nxs[which], np.sqrt(_dot_columns(y, y))
    chx, shx = _mapped(cos, 0.5 * nxs)[which], _mapped(sin, 0.5 * nxs)[which]
    chy, shy = _mapped(cos, 0.5 * ny), _mapped(sin, 0.5 * ny)
    px, py = nx > 0.0, ny > 0.0
    cos_ang = np.where(px & py, np.clip(_dot_columns(x, y) / (nx * ny), -1.0, 1.0), 0.0)
    e, a1, b1, c1 = _quaternion(chx, shx, chy, shy, cos_ang)
    h_alpha = np.where(px, a1 / nx, chy)
    h_beta = np.where(py, b1 / ny, chx)
    h_gamma = np.where(px & py, c1 / (nx * ny), np.where(py, shy / ny, np.where(px, shx / nx, 1.0)))
    kxy = np.array(_cross3(x, y))
    q = _combine(x, y, kxy, h_alpha, h_beta, h_gamma)
    d1 = np.sqrt(_dot_columns(q, q))
    theta_q = 2.0 * _mapped(atan2, d1, e)
    theta_ball = np.where(theta_q <= pi, theta_q, 2.0 * pi - theta_q)
    k = np.where(e >= 0.0, 1.0, -1.0) * theta_ball / d1
    generic = (_FROB_PER_D1 * d1 > BRANCH_TOL) & (theta_ball < pi - BRANCH_TOL)
    return _combine(x, y, kxy, k * h_alpha, k * h_beta, k * h_gamma), generic


def bch(x, y) -> BallClass:
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
    return BallClass(_bch_full(_vec3(x), _vec3(y))[0])


def bch_breakdown(x, y) -> BchBreakdown:
    """Branch, coefficients, and quaternion intermediates of ``bch(x, y)``."""
    return BchBreakdown(*_bch_full(_vec3(x), _vec3(y))[1])
