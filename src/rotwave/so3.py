"""Rotation-group primitives: hat map, exponential and logarithm, hemisphere
reduction, and the tangent maps used by the Lie-group ODE integrator.

Conventions
-----------
Rotations act on column vectors. Elements of the Lie algebra are stored as
their axis vectors: the 3-vector ``v`` stands for the skew matrix ``hat(v)``
with ``hat(e_z) @ e_x = e_y`` (so ``exp_rot(t * e_z)`` is the counterclockwise
rotation about +z). The matrix logarithm lives in the closed ball of radius pi
with antipodal boundary points identified; :class:`BallClass` models one such
equivalence class.

Input rules
-----------
Each rule for a caller's input has its home here: a number (:func:`_real`; ``_positive``
and ``_finite`` narrow it), a 3-vector (:func:`_vec3`), a unit vector to 1e-10
(:func:`_as_unit3`, also for a ``Frame``'s rows), an array (:func:`_float_array`) and a
sample time, one number in [0, t_end] to ``_TIME_SLACK`` (:func:`_time_in_range`) or a
1-D array of them (:func:`_time_array`), which the trajectories, the batch sampler and
:func:`rotwave.tip.tip_trajectory`'s period samples read. ``_BALL_SLACK`` is the one
tolerance at the ball's boundary: :func:`_ball_vector` snaps a norm that far past pi back
onto the sphere, and :func:`_q_map` and :func:`_q_map_arrays` count a norm that close
below pi as on it. The integrator's tolerances, two positive numbers and their defaults,
are :class:`IntegratorConfig`, which :mod:`rotwave.flow` re-exports.

Scalar kernels
--------------
The hot paths work on Python floats through :mod:`math` and build no 3x3
matrix. Each formula they share is held once, as a straight-line source
fragment: the Rodrigues coefficients (``_EXP_COEFFS``), the nine entries of
``I + a hat(v) + b hat(v)^2``, the shape of :func:`exp_rot`, :func:`dexp_op`
and :func:`dexpinv_op` (``_EXP_ENTRIES``; ``_EXP_MATRIX`` is all of exp_rot),
the left-to-right 3x3 product (``_MATMUL3``), and the right-hand side's two
products, ``exp_rot(v) @ w`` and ``dexpinv_op(z) @ x`` (``_EXP_APPLY``;
``_DEXPINV_APPLY`` with ``_DEXPINV_C2``). Import compiles the first three, with
the angle and its finite check (``_EXP_ANGLE``), into the float kernels
``_exp_coeffs``, ``_quadratic_entries``, ``_exp_entries`` and ``_matmul3``.
Everything else compiles at first use: a built-in forcing shape into its
forcing and fused right-hand side (:func:`rotwave.flow._shape_kernel`) and into
its closed form (:func:`rotwave.scenarios._closed_kernel`), and
``_dexpinv_kernels`` into :func:`dexpinv_op`'s coefficient and the composed
right-hand side. The closed-form BCH is a fragment of :mod:`rotwave.bch`
(``_BCH``), compiled at its import into the scalar BCH and at the first
:func:`rotwave.hopf.periodic_part` into the periodic part's sampler.
:func:`_generated` compiles all of them and enters their
source in :mod:`linecache`. Generated code takes float triples and skips
validation; :func:`_vec3` runs at the public entry points only. ``_matvec3``
and ``_frob_dist`` apply and compare nine-float matrices, summing left to
right. numpy is imported by the first call that builds an ndarray.

``_exp_entries_arrays`` and ``_q_map_arrays`` run the same formulas on the
columns of a (3, m) array, with scalar functions mapped over the elements
(``_mapped``), so that each element is bitwise its scalar value; the first
batch compiles the array form of ``_EXP_COEFFS`` (``_exp_coeffs_arrays``).
"""
from __future__ import annotations

import functools
import linecache
import math
import operator
import re
import sys
from collections.abc import Callable

from ._numpy import lazy_numpy
from .errors import ConfigError, DomainError, SingularityError

np = lazy_numpy(globals())

__all__ = [
    "BallClass",
    "as_rotation",
    "dexp_op",
    "dexpinv_op",
    "exp_rot",
    "hat",
    "hemisphere_sign",
    "log_rot",
    "q_map",
    "rot_x",
    "rot_z",
    "vee",
]

#: below this angle the trigonometric coefficient functions switch to their
#: Taylor polynomials (the closed forms lose relative accuracy to cancellation)
SERIES_RADIUS = 1e-4

#: dexpinv is singular at |Z| = 2*pi; refuse evaluation inside this margin
DEXPINV_MARGIN = 1e-6
#: the |z| from which dexpinv is refused
_DEXPINV_LIMIT = 2.0 * math.pi - DEXPINV_MARGIN

#: half-width of the band around the equator of the reference hemisphere in
#: which a direction counts as "boundary" for the hemisphere map
HEMI_BAND = 1e-6

#: how far past pi a ball vector's norm is rounding noise, and how close below pi it is on the
#: boundary sphere
_BALL_SLACK = 1e-12

#: how far outside [0, t_end] a sample time may lie and still count as inside it
_TIME_SLACK = 1e-9

#: most samples one request may ask for: tip_trajectory's period samples, and
#: the CLI's horizon x samples-per-period, the rows simulate writes per lambda
#: (one more with t = 0), which also bounds the frequency horizon
MAX_SAMPLES = 1_000_000


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of the axis vector ``v`` (so ``hat(v) @ w = v x w``)."""
    x, y, z = _vec3(v)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`. Raises DomainError if ``m`` is not skew within 1e-10."""
    m = _float_array(m, (3, 3), "vee's matrix")
    if np.max(np.abs(m + m.T)) > 1e-10:
        raise DomainError("vee: matrix is not skew-symmetric within 1e-10")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _real(v) -> float | None:
    """``v`` as a float if it is a number, else None: the one rule for what a number is.

    A number is an int, a float, a numpy real scalar or a 0-d numpy array of
    one. A bool, a str, bytes and an int past the float range are not. A
    numpy object can exist only once numpy is loaded, so numpy is looked up,
    not imported.
    """
    numpy = sys.modules.get("numpy")
    if (isinstance(v, (float, int)) and not isinstance(v, bool)) or (
        numpy is not None
        and (
            isinstance(v, (numpy.integer, numpy.floating))
            or (isinstance(v, numpy.ndarray) and v.ndim == 0 and v.dtype.kind in "iuf")
        )
    ):
        try:
            return float(v)
        except OverflowError:  # an int past the float range
            pass
    return None


def _positive(v, what: str, error=DomainError) -> float:
    """``v`` as a float; ``error`` unless it is a positive finite number (:func:`_real`)."""
    x = _real(v)
    if x is None or not 0.0 < x < math.inf:
        rule = "positive and finite" if x is not None else "a real number, not a boolean or a string"
        raise error(f"{what} must be {rule}, got {v!r}")
    return x


def _finite(v, what: str, error=DomainError, nonnegative: bool = False) -> float:
    """``v`` as a float; ``error`` unless it is a finite number (:func:`_real`),
    and not negative if ``nonnegative``."""
    x = _real(v)
    if x is None or not math.isfinite(x) or (nonnegative and x < 0.0):
        rule = "nonnegative and finite" if nonnegative else "finite"
        rule = rule if x is not None else "a real number, not a boolean or a string"
        raise error(f"{what} must be {rule}, got {v!r}")
    return x


class IntegratorConfig:
    """Adaptive-integrator settings shared by all formulations; ConfigError unless each
    tolerance is a positive finite number (:func:`_positive`).

    :func:`rotwave.flow.integrate_group` integrates a periodic forcing over one relative
    period at ``rtol / PERIOD_TOL_FACTOR`` and ``atol / PERIOD_TOL_FACTOR``
    (:data:`rotwave.flow.PERIOD_TOL_FACTOR`) and reaches every later time through the
    monodromy. The error of ``A(nT)`` is n times the error of the period map, so the period
    is integrated that much tighter than the tolerances asked for; at the defaults the
    largest error over ten periods is then below that of a direct integration. An
    aperiodic forcing (``period=None``) is integrated over the whole horizon at ``rtol``
    and ``atol``.

    It lives here, with the input rules, so that the CLI checks and prints a configuration,
    and its help reads the defaults, without running :mod:`rotwave.flow`.
    """

    #: the defaults of the settings
    rtol = 1e-10
    atol = 1e-12

    def __init__(self, rtol: float = rtol, atol: float = atol):
        self.rtol = _positive(rtol, "rtol", ConfigError)
        self.atol = _positive(atol, "atol", ConfigError)


def _vec3(v) -> tuple[float, float, float]:
    """``v`` as a float triple; DomainError unless it is three numbers (:func:`_real`)
    with a finite squared norm. A str or bytes is never a 3-vector."""
    try:
        x, y, z = () if isinstance(v, (str, bytes)) else v
    except (TypeError, ValueError):
        raise DomainError(f"expected a 3-vector, got {v!r}") from None
    x, y, z = r = (_real(x), _real(y), _real(z))
    if None in r:
        raise DomainError(f"expected a 3-vector of real numbers, not booleans or strings, got {v!r}")
    if not math.isfinite(x * x + y * y + z * z):
        raise DomainError(f"expected a finite 3-vector with a finite norm, got {v!r}")
    return r


def _float_array(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a float ndarray; DomainError unless it is numeric, finite and of ``shape``.

    A None in ``shape`` matches any length; booleans and strings, also inside a list, are not numeric.
    """
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf" or (isinstance(value, (list, tuple)) and _holds_boolean(value)):
        raise DomainError(f"{what} must be an array of real numbers")
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        want = str(shape).replace("None", "n")
        raise DomainError(f"{what} must be {len(shape)}-D with shape {want}, got shape {a.shape}")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite")
    return a


def _holds_boolean(level) -> bool:
    """Whether nested lists or tuples hold a bool, numpy.bool_ or boolean ndarray (a C type scan per level)."""
    while level:
        kinds = set(map(type, level))
        if bool in kinds or np.bool_ in kinds or np.ndarray in kinds and any(
                type(x) is np.ndarray and x.dtype.kind == "b" for x in level):  # a 0-d or a row
            return True
        level = [y for x in level for y in x] if np.ndim(level[0]) else ()  # numpy nests evenly
    return False


def _time_in_range(t, t_end: float) -> float:
    """``t`` as a float; DomainError unless it is one number (:func:`_real`) in [0, t_end],
    to ``_TIME_SLACK``."""
    s = t if type(t) is float else _real(t)
    if s is None:
        raise DomainError(f"a time must be one real number, got {t!r}")
    if not (-_TIME_SLACK <= s <= t_end + _TIME_SLACK):
        raise DomainError(f"t={t!r} outside the integrated range [0, {t_end!r}]")
    return s


def _time_array(t) -> np.ndarray | None:
    """The times of a 1-D ndarray of numbers as a float ndarray; None for a single time.

    :func:`_float_array` checks the dtype and the shape, of 1-D times on an empty slice,
    so that a non-finite time fails each time's own check, with its message.
    """
    if not (isinstance(t, np.ndarray) and t.ndim):
        return None
    _float_array(t[:0] if t.ndim == 1 else t, (None,), "times")
    return t.astype(float, copy=False)


def _as_unit3(v, what: str) -> tuple[float, float, float]:
    """``v`` as a float triple; DomainError, naming the parameter ``what`` and the norm to 17
    significant digits, unless it is a unit vector to within 1e-10."""
    r = _vec3(v)
    n = _norm3(r)
    if abs(n - 1.0) > 1e-10:
        raise DomainError(f"{what} must be a unit vector to within 1e-10, got norm {n:.17g}")
    return r


def _norm3(v) -> float:
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def _dot3(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v) -> tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot_columns(u, v) -> np.ndarray:
    """:func:`_dot3` of each column of (3, m) arrays: the three products summed from -0.0, the
    identity of IEEE addition, one after another, so each column is bitwise its scalar value."""
    return np.add.reduce(u * v, axis=0, initial=-0.0)


def _matvec3(a, v) -> tuple[float, float, float]:
    """A row-major 3x3 matrix of nine floats applied to a float triple."""
    x, y, z = v
    return tuple(a[i] * x + a[i + 1] * y + a[i + 2] * z for i in (0, 3, 6))


def _frob_dist(a, b) -> float:
    """Frobenius norm of the difference of two matrices of nine floats each."""
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def _indented(fragment: str, depth: int) -> str:
    """``fragment`` with each line indented ``depth`` levels, to splice into generated source."""
    return "".join("    " * depth + line for line in fragment.splitlines(True))


def _renamed(fragment: str, old: str, new: str) -> str:
    """``fragment`` with its variables ``old0``, ``old1``, ... renamed ``new0``, ``new1``, ..."""
    return re.sub(rf"\b{old}(\d)\b", rf"{new}\1", fragment)


def _generated(source: str, filename: str, **names) -> dict:
    """The namespace in which ``source`` ran, with math's names, this module's and ``names``.

    The source is entered in :mod:`linecache` under ``filename``, so that tracebacks and
    line tracers can show the generated lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {**vars(math), **globals(), **names}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


#: the Rodrigues coefficients ``sin(t)/t`` and ``(1 - cos t)/t^2 = 2 sin^2(t/2)/t^2`` as
#: straight-line source, each branch of the series switch apart: reads rt = |v|, sets ra and rb
_EXP_SERIES = """\
rt2 = rt * rt
ra = 1.0 - rt2 / 6.0 + rt2 * rt2 / 120.0 - rt2 * rt2 * rt2 / 5040.0
rb = 0.5 - rt2 / 24.0 + rt2 * rt2 / 720.0 - rt2 * rt2 * rt2 / 40320.0
"""
_EXP_CLOSED = """\
rs = sin(0.5 * rt)
ra = sin(rt) / rt
rb = 2.0 * rs * rs / (rt * rt)
"""

#: the two branches joined at SERIES_RADIUS (the closed forms lose relative accuracy to cancellation)
_EXP_COEFFS = ("if rt < SERIES_RADIUS:\n" + _indented(_EXP_SERIES, 1)
               + "else:\n" + _indented(_EXP_CLOSED, 1))

#: ``I + ra hat(v) + rb hat(v)^2`` (hat(v)^2 = v v^T - |v|^2 I), row-major, in the same
#: form: reads v0, v1, v2, ra and rb, sets e0..e8
_EXP_ENTRIES = """\
rbxy = rb * v0 * v1
rbxz = rb * v0 * v2
rbyz = rb * v1 * v2
e0 = 1.0 - rb * (v1 * v1 + v2 * v2)
e1 = rbxy - ra * v2
e2 = rbxz + ra * v1
e3 = rbxy + ra * v2
e4 = 1.0 - rb * (v0 * v0 + v2 * v2)
e5 = rbyz - ra * v0
e6 = rbxz - ra * v1
e7 = rbyz + ra * v0
e8 = 1.0 - rb * (v0 * v0 + v1 * v1)
"""

#: the angle |v|: reads v0, v1, v2, sets rt; DomainError unless it is finite (:func:`_vec3`'s
#: rule: an infinite angle has no sine)
_EXP_ANGLE = """\
rt = sqrt(v0 * v0 + v1 * v1 + v2 * v2)
if not isfinite(rt):
    raise DomainError("expected a finite 3-vector")
"""

#: ``exp_rot(v)`` by the Rodrigues formula: reads v0, v1, v2, sets e0..e8
_EXP_MATRIX = _EXP_ANGLE + _EXP_COEFFS + _EXP_ENTRIES

#: the product of two row-major 3x3 matrices, each entry summed left to right: reads
#: a0..a8 and b0..b8, sets m0..m8
_MATMUL3 = "".join(
    f"m{3 * i + j} = a{3 * i} * b{j} + a{3 * i + 1} * b{3 + j} + a{3 * i + 2} * b{6 + j}\n"
    for i in range(3) for j in range(3)
)


def _nine(name: str) -> str:
    """The variables ``name0, ..., name8`` of a nine-float matrix, for generated source."""
    return ", ".join(f"{name}{i}" for i in range(9))


# the float kernels of the fragments: _exp_coeffs(|v|) -> (ra, rb); _quadratic_entries(v, a, b),
# the nine floats of I + a hat(v) + b hat(v)^2; _exp_entries(v), the scalar form of exp_rot
# (DomainError unless |v| is finite); _matmul3(a, b), the product of two nine-float matrices
_exp_coeffs, _quadratic_entries, _exp_entries, _matmul3 = operator.itemgetter(
    "_exp_coeffs", "_quadratic_entries", "_exp_entries", "_matmul3"
)(_generated(
    "def _exp_coeffs(rt):\n" + _indented(_EXP_COEFFS, 1) + "    return ra, rb\n\n"
    "def _quadratic_entries(v, ra, rb):\n    v0, v1, v2 = v\n" + _indented(_EXP_ENTRIES, 1)
    + f"    return {_nine('e')}\n\n"
    "def _exp_entries(v):\n    v0, v1, v2 = v\n" + _indented(_EXP_ANGLE, 1)
    + "    return _quadratic_entries(v, *_exp_coeffs(rt))\n\n"
    f"def _matmul3(a, b):\n    {_nine('a')} = a\n    {_nine('b')} = b\n"
    + _indented(_MATMUL3, 1) + f"    return {_nine('m')}\n",
    "<so3 kernels>",
))


def _mapped(f, *arrays) -> np.ndarray:
    """The scalar function ``f`` elementwise over 1-D arrays: math's rounding, not numpy's."""
    return np.fromiter(map(f, *(a.tolist() for a in arrays)), float, len(arrays[0]))


@functools.lru_cache(maxsize=None)
def _exp_coeffs_arrays() -> Callable:
    """``coeffs(rt) -> (ra, rb)``, :func:`_exp_coeffs` of a 1-D array, compiled at the first batch.

    Both branches of ``_EXP_COEFFS`` run on the whole array, sin mapped through math
    (:func:`_mapped`), and ``np.where`` picks each element's; numpy rounds + - * / as
    Python floats do, so each element is bitwise its scalar value."""
    source = ("def coeffs(rt):\n" + _indented(_EXP_SERIES, 1) + "    sa, sb = ra, rb\n"
              + _indented(_EXP_CLOSED, 1) + "    series = rt < SERIES_RADIUS\n"
              "    return where(series, sa, ra), where(series, sb, rb)\n")
    sin = functools.partial(_mapped, math.sin)
    return _generated(source, "<so3 array coefficients>", sin=sin, where=np.where)["coeffs"]


def _exp_entries_arrays(v) -> np.ndarray:
    """:func:`_exp_entries` of each column of a (3, m) array: the (9, m) array of the entries."""
    return np.array(_quadratic_entries(v, *_exp_coeffs_arrays()(np.sqrt(_dot_columns(v, v)))))


def _exp_matrix(v) -> np.ndarray:
    """:func:`_exp_entries` as a 3x3 ndarray."""
    return np.array(_exp_entries(v)).reshape(3, 3)


def exp_rot(v: np.ndarray) -> np.ndarray:
    """Rotation matrix ``exp(hat(v))`` by the Rodrigues formula.

    Parameters
    ----------
    v : array_like, shape (3,)
        Axis vector; its norm is the rotation angle (any magnitude accepted).

    Returns
    -------
    ndarray, shape (3, 3)
        Proper orthogonal matrix, orthogonal to machine precision.
    """
    return _exp_matrix(_vec3(v))


def _cos_sin(angle) -> tuple:
    """numpy's cosine and sine of ``angle``; DomainError unless it is a finite number."""
    a = _finite(angle, "angle")
    return np.cos(a), np.sin(a)


def rot_x(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about +x."""
    c, s = _cos_sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about +z."""
    c, s = _cos_sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def as_rotation(m: np.ndarray) -> np.ndarray:
    """Validate ``m`` as a rotation matrix, re-orthonormalizing small drift.

    Matrices within 1e-12 of orthogonality pass through unchanged;
    drift up to 1e-3 is repaired by projection onto SO(3) (polar factor);
    anything worse raises DomainError.
    """
    m = _float_array(m, (3, 3), "rotation")
    with np.errstate(over="ignore", invalid="ignore"):  # entries far past 1 give inf or NaN
        err = max(
            float(np.linalg.norm(m.T @ m - np.eye(3))),
            abs(float(np.linalg.det(m)) - 1.0),
        )
    if err <= 1e-12:
        return m
    if not err <= 1e-3:
        raise DomainError(f"matrix is not a rotation (orthogonality defect {err:.3e})")
    # |det m - 1| <= 1e-3 keeps det m > 0, so the polar factor has det +1
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def _ball_vector(v):
    """The ball representative of the finite float triple ``v`` (BallClass's check).

    Raises DomainError when ``|v| > pi + _BALL_SLACK``; a smaller overshoot past pi
    is floating-point noise and is snapped back onto the boundary sphere.
    """
    n = _norm3(v)
    if not n <= math.pi + _BALL_SLACK:
        raise DomainError(f"ball-class vector has norm {n:.17g} > pi + {_BALL_SLACK:g}")
    if n > math.pi:
        s = math.pi / n
        x, y, z = v
        return (x * s, y * s, z * s)
    return v


class BallClass:
    """A point of the closed radius-pi ball with antipodal boundary points identified.

    The stored ``vector`` is one representative, a read-only ndarray; two
    instances are the same class iff their vectors coincide, or both have
    norm pi and are negatives of each other.
    """

    def __init__(self, vector: np.ndarray):
        v = np.array(_ball_vector(_vec3(vector)))
        v.flags.writeable = False
        self.vector = v

    @property
    def norm(self) -> float:
        return _norm3(self.vector.tolist())

    def isclose(self, other: "BallClass", tol: float = 1e-12) -> bool:
        """Class equality within ``tol`` (antipodal boundary reps compare equal)."""
        d = float(np.linalg.norm(self.vector - other.vector))
        if d <= tol:
            return True
        if min(self.norm, other.norm) >= math.pi - max(tol, 1e-9):
            return float(np.linalg.norm(self.vector + other.vector)) <= tol
        return False

    def __eq__(self, other):
        if not isinstance(other, BallClass):
            return NotImplemented
        return self.isclose(other, tol=0.0)

    def __repr__(self):
        return f"BallClass({np.array2string(self.vector, precision=12)})"


def log_rot(r: np.ndarray) -> BallClass:
    """Matrix logarithm of a rotation, as a ball class.

    Parameters
    ----------
    r : array_like, shape (3, 3)
        Rotation matrix. Small orthogonality drift is repaired first.

    Returns
    -------
    BallClass
        The class [v] with ``exp_rot(v) == r``.

    Notes
    -----
    The angle is recovered as ``atan2(|skew part|, (trace - 1)/2)``, which
    keeps full precision at both ends of [0, pi]. Away from angle pi the
    axis comes from the skew part of ``r``. Within 1e-6 of pi the skew part
    degenerates, so the axis is extracted from the symmetric rank-one matrix
    ``(B - cos^2(t/2) I) / sin^2(t/2)`` ~ ``n n^T`` (B the symmetrized
    half-sum), reading the dominant diagonal first; the representative's
    sign is canonicalized to make its first nonzero component positive.
    """
    r = as_rotation(r)
    c = float(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))
    w = vee((r - r.T) / 2.0)  # = sin(angle) * axis
    s = float(np.linalg.norm(w))
    # atan2 stays well conditioned at both ends, where arccos((tr-1)/2)
    # flattens quadratically and loses half the digits
    angle = float(np.arctan2(s, c))
    if angle < math.pi - 1e-6:
        if s < 1e-12:
            return BallClass(w)  # angle ~ 0: w is already the vector to O(angle^3)
        return BallClass(w * (angle / s))
    # near pi: (r + I)/2 ~ n n^T + cos-corrections; symmetrize and normalize
    b = (r + r.T) / 4.0 + np.eye(3) / 2.0
    c2h = (1.0 + c) / 2.0  # cos^2(angle/2)
    s2 = 1.0 - c2h
    cm = (b - c2h * np.eye(3)) / s2
    j = int(np.argmax(np.diag(cm)))
    nj = float(np.sqrt(max(cm[j, j], 0.0)))
    axis = cm[:, j] / nj
    axis /= np.linalg.norm(axis)
    # the rank-one extraction loses the axis sign; below pi it is physical
    # (the two signs are different rotations) and the skew part still holds
    # it: w . axis = sin(angle) * (n . axis)
    d = float(w @ axis)
    if abs(d) <= 8.0 * np.finfo(float).eps:
        # indistinguishable from a half turn: both signs reconstruct r to
        # machine precision, pick the canonical antipodal representative
        d = axis[np.flatnonzero(axis)[0]]
    if d < 0.0:
        axis = -axis
    return BallClass(angle * axis)


def _northern(u, c: float) -> bool:
    """Whether the unit vector ``u``, with ``c = u . ref``, is on the reference side.

    The sign of c decides off the equator (``|c| > 1e-9``); on it +y wins,
    then -x, then +z. Exactly one of two antipodes is northern."""
    if abs(c) > 1e-9:
        return c > 0.0
    x, y, z = u
    if abs(y) > 1e-9:
        return y > 0.0
    return x < 0.0 if x != 0.0 else z > 0.0


def hemisphere_sign(u: np.ndarray, ref: np.ndarray) -> float:
    """+1 if the unit vector ``u`` lies on the side of ``ref``, else -1.

    The sign of ``c = u . ref`` decides when ``|c| > 1e-9``, so any c < -1e-9
    gives -1; on the equator +y wins, then -x, then +z (:func:`_northern`).
    DomainError unless ``u`` is a unit vector (to 1e-10) and ``ref`` a 3-vector.
    """
    u = _as_unit3(u, "hemisphere_sign's u")
    return 1.0 if _northern(u, _dot3(u, _vec3(ref))) else -1.0


def q_map(c: BallClass, ref_dir: np.ndarray) -> np.ndarray:
    """Pick the representative of ``c`` on the reference side, unreduced past 2*pi.

    Representatives whose direction lies in the closed hemisphere around
    ``ref_dir`` (with a 1e-6 tolerance band at the equator) are returned as
    stored; clearly-opposite representatives are replaced by their
    2*pi-complement ``(1 - 2*pi/|v|) * v``, which has norm ``2*pi - |v|`` and
    the opposite direction but the same exponential.

    Parameters
    ----------
    c : BallClass
    ref_dir : array_like, shape (3,)
        Unit reference direction (checked to 1e-10).

    Returns
    -------
    ndarray, shape (3,)
        Vector with ``exp_rot(result) == exp_rot(c.vector)``.
    """
    return np.array(_q_map(c.vector.tolist(), _as_unit3(ref_dir, "q_map's ref_dir")))


def _q_map_arrays(v, ref):
    """:func:`_q_map` of :func:`_ball_vector` over the columns of a (3, m) array, and the mask of
    the columns it maps.

    A column outside the mask (zero, past pi, or on the boundary sphere
    within the equator band) is left for the caller to redo alone."""
    n = np.sqrt(_dot_columns(v, v))
    c = _dot3(v / n, ref)
    band = (n >= math.pi - _BALL_SLACK) & (np.abs(c) <= HEMI_BAND)
    s = 1.0 - 2.0 * math.pi / n
    return np.where(c >= -HEMI_BAND, v, s * v), (n > 0.0) & (n <= math.pi) & ~band


def _q_map(v, ref):
    """Scalar form of :func:`q_map` on a ball vector and a checked unit reference, as float triples."""
    n = _norm3(v)
    if n == 0.0:
        return v
    x, y, z = v
    u = (x / n, y / n, z / n)
    t = u[0] * ref[0] + u[1] * ref[1] + u[2] * ref[2]
    if t >= -HEMI_BAND:
        if n >= math.pi - _BALL_SLACK and abs(t) <= HEMI_BAND and not _northern(u, t):
            # antipodal class with boundary direction: canonicalize the rep
            return (-x, -y, -z)
        return v
    s = 1.0 - 2.0 * math.pi / n
    return (s * x, s * y, s * z)


def _dexp_coeffs(theta: float) -> tuple[float, float]:
    # (cos t - 1)/t^2 and (t - sin t)/t^3, series-switched
    if theta < SERIES_RADIUS:
        t2 = theta * theta
        ca = -0.5 + t2 / 24.0 - t2 * t2 / 720.0 + t2 * t2 * t2 / 40320.0
        cb = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 * t2 * t2 / 362880.0
    else:
        ca = (math.cos(theta) - 1.0) / (theta * theta)
        cb = (theta - math.sin(theta)) / (theta * theta * theta)
    return ca, cb


def dexp_op(z: np.ndarray) -> np.ndarray:
    """Right trivialized tangent of exp at ``z``, as a 3x3 matrix on axis vectors.

    ``d/dt exp_rot(Z(t)) = exp_rot(Z) @ hat(dexp_op(Z) @ Zdot)``.
    """
    z = _vec3(z)
    return np.array(_quadratic_entries(z, *_dexp_coeffs(_norm3(z)))).reshape(3, 3)


def dexpinv_op(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dexp_op`: ``Zdot = dexpinv_op(Z) @ X`` solves the group ODE.

    Singular at ``|z| = 2*pi``; evaluation within DEXPINV_MARGIN of the
    singularity raises SingularityError (the integrator restarts segments
    long before reaching it).
    """
    z = _vec3(z)
    c2, _ = _dexpinv_kernels()
    return np.array(_quadratic_entries(z, 0.5, c2(_norm3(z)))).reshape(3, 3)


#: ``exp_rot(v) @ w`` by the vector Rodrigues formula ``w + a v x w + b v x (v x w)``,
#: as straight-line source: reads the floats v0, v1, v2 and w0, w1, w2, sets r0, r1, r2
_EXP_APPLY = "rt = sqrt(v0 * v0 + v1 * v1 + v2 * v2)\n" + _EXP_COEFFS + """\
rc0 = v1 * w2 - v2 * w1
rc1 = v2 * w0 - v0 * w2
rc2 = v0 * w1 - v1 * w0
r0 = w0 + ra * rc0 + rb * (v1 * rc2 - v2 * rc1)
r1 = w1 + ra * rc1 + rb * (v2 * rc0 - v0 * rc2)
r2 = w2 + ra * rc2 + rb * (v0 * rc1 - v1 * rc0)
"""

#: the coefficient of hat(z)^2 in dexpinv, ``1/t^2 - cos(t/2)/(2 t sin(t/2))``, in the
#: same form: reads dt = |z|, sets db, raises SingularityError within DEXPINV_MARGIN of 2*pi
_DEXPINV_C2 = """\
if dt < SERIES_RADIUS:
    dt2 = dt * dt
    db = 1.0 / 12.0 + dt2 / 720.0 + dt2 * dt2 / 30240.0 + dt2 * dt2 * dt2 / 1209600.0
elif dt >= _DEXPINV_LIMIT:
    raise SingularityError(f"dexpinv evaluated at |z| = {dt:.6f}, within {DEXPINV_MARGIN:g} of 2*pi")
else:
    db = 1.0 / (dt * dt) - cos(0.5 * dt) / (2.0 * sin(0.5 * dt) * dt)
"""

#: ``dexpinv_op(z) @ x = x + (z x x)/2 + c2 z x (z x x)``: reads z0..z2 and x0..x2, sets d0..d2
_DEXPINV_APPLY = "dt = sqrt(z0 * z0 + z1 * z1 + z2 * z2)\n" + _DEXPINV_C2 + """\
dc0 = z1 * x2 - z2 * x1
dc1 = z2 * x0 - z0 * x2
dc2 = z0 * x1 - z1 * x0
d0 = x0 + 0.5 * dc0 + db * (z1 * dc2 - z2 * dc1)
d1 = x1 + 0.5 * dc1 + db * (z2 * dc0 - z0 * dc2)
d2 = x2 + 0.5 * dc2 + db * (z0 * dc1 - z1 * dc0)
"""


@functools.lru_cache(maxsize=None)
def _dexpinv_kernels() -> tuple[Callable, Callable]:
    """``c2(|z|)`` and ``apply(z, x) = dexpinv_op(z) @ x`` on floats, compiled at first use."""
    namespace = _generated(
        "def c2(dt):\n" + _indented(_DEXPINV_C2, 1) + "    return db\n\n"
        "def apply(z, x):\n    z0, z1, z2 = z\n    x0, x1, x2 = x\n"
        + _indented(_DEXPINV_APPLY, 1) + "    return d0, d1, d2\n",
        "<dexpinv kernels>",
    )
    return namespace["c2"], namespace["apply"]
