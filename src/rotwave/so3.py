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

Scalar kernels
--------------
The hot paths work on Python floats through :mod:`math` and build no 3x3
matrix. The private scalar forms of the public matrix functions are:

- ``_exp_apply(v, w)``, the scalar form of ``exp_rot(v) @ w`` (vector
  Rodrigues);
- ``_dexpinv_apply(z, x)``, the scalar form of ``dexpinv_op(z) @ x``, behind
  the same DEXPINV_MARGIN guard.

:func:`exp_rot`, :func:`dexp_op` and :func:`dexpinv_op` all have the shape
``I + a hat(v) + b hat(v)^2``: ``_quadratic_matrix`` fills it from floats and
``_quadratic_apply`` applies it to a vector. A public function and its scalar
form take ``a`` and ``b`` from the same coefficient function. The scalar
forms take 3-sequences of floats and skip validation; :func:`_as_vec3` runs
at the public entry points only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "AngleAxis",
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

#: half-width of the band around the equator of the reference hemisphere in
#: which a direction counts as "boundary" for the hemisphere map
HEMI_BAND = 1e-6

_EZ = np.array([0.0, 0.0, 1.0])


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of the axis vector ``v`` (so ``hat(v) @ w = v x w``)."""
    v = _as_vec3(v)
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`. Raises DomainError if ``m`` is not skew within 1e-10."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise DomainError(f"vee expects a 3x3 matrix, got shape {m.shape}")
    if np.max(np.abs(m + m.T)) > 1e-10:
        raise DomainError("vee: matrix is not skew-symmetric within 1e-10")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _as_vec3(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {v.shape}")
    _finite3(v.tolist())
    return v


def _finite3(v):
    """The float triple ``v`` itself; DomainError unless all three components are finite."""
    x, y, z = v
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError("expected a finite 3-vector")
    return v


def _as_unit3(v) -> list[float]:
    """``v`` as a float triple; DomainError unless it is a unit vector to within 1e-10."""
    r = _as_vec3(v).tolist()
    if abs(_norm3(r) - 1.0) > 1e-10:
        raise DomainError("q_map reference direction must be a unit vector")
    return r


def _norm3(v) -> float:
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def _quadratic_apply(v, w, a: float, b: float) -> tuple[float, float, float]:
    """``(I + a hat(v) + b hat(v)^2) @ w`` on float triples."""
    v0, v1, v2 = v
    w0, w1, w2 = w
    c0 = v1 * w2 - v2 * w1
    c1 = v2 * w0 - v0 * w2
    c2 = v0 * w1 - v1 * w0
    return (
        w0 + a * c0 + b * (v1 * c2 - v2 * c1),
        w1 + a * c1 + b * (v2 * c0 - v0 * c2),
        w2 + a * c2 + b * (v0 * c1 - v1 * c0),
    )


def _quadratic_matrix(v, a: float, b: float) -> np.ndarray:
    """``I + a hat(v) + b hat(v)^2`` filled from floats (hat(v)^2 = v v^T - |v|^2 I)."""
    x, y, z = v
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return np.array(
        (
            1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y,
            bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x,
            bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y),
        )
    ).reshape(3, 3)


def _exp_coeffs(theta: float) -> tuple[float, float]:
    # sin(t)/t and (1 - cos t)/t^2 = 2 sin^2(t/2)/t^2, series-switched
    if theta < SERIES_RADIUS:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0
    else:
        a = math.sin(theta) / theta
        half = math.sin(0.5 * theta)
        b = 2.0 * half * half / (theta * theta)
    return a, b


def _exp_apply(v, w) -> tuple[float, float, float]:
    """Scalar form of ``exp_rot(v) @ w`` (vector Rodrigues) on float triples."""
    return _quadratic_apply(v, w, *_exp_coeffs(_norm3(v)))


def _exp_matrix(v) -> np.ndarray:
    """Scalar form of :func:`exp_rot` on a float triple."""
    return _quadratic_matrix(v, *_exp_coeffs(_norm3(v)))


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
    return _exp_matrix(_as_vec3(v).tolist())


def rot_x(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about +x."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about +z."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def as_rotation(m: np.ndarray, drift_tol: float = 1e-12) -> np.ndarray:
    """Validate ``m`` as a rotation matrix, re-orthonormalizing small drift.

    Matrices within ``drift_tol`` of orthogonality pass through unchanged;
    drift up to 1e-3 is repaired by projection onto SO(3) (polar factor);
    anything worse raises DomainError.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        raise DomainError("rotation must be a finite 3x3 matrix")
    err = max(
        float(np.linalg.norm(m.T @ m - np.eye(3))),
        abs(float(np.linalg.det(m)) - 1.0),
    )
    if err <= drift_tol:
        return m
    if err > 1e-3:
        raise DomainError(f"matrix is not a rotation (orthogonality defect {err:.3e})")
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def _ball_vector(v):
    """The ball representative of the finite float triple ``v`` (BallClass's check).

    Raises DomainError when ``|v| > pi + 1e-12``; a smaller overshoot past pi
    is floating-point noise and is snapped back onto the boundary sphere.
    """
    n = _norm3(v)
    if not n <= math.pi + 1e-12:
        raise DomainError(f"ball-class vector has norm {n:.17g} > pi + 1e-12")
    if n > math.pi:
        s = math.pi / n
        x, y, z = v
        return (x * s, y * s, z * s)
    return v


class AngleAxis(NamedTuple):
    """Angle in [0, pi] and unit axis (axis is +z by convention at angle 0)."""

    angle: float
    axis: np.ndarray


@dataclass(frozen=True, eq=False)
class BallClass:
    """A point of the closed radius-pi ball with antipodal boundary points identified.

    The stored ``vector`` is one representative; two instances are the same
    class iff their vectors coincide, or both have norm pi and are negatives
    of each other.
    """

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(_ball_vector(_as_vec3(self.vector).tolist()))
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

    @property
    def norm(self) -> float:
        return _norm3(self.vector.tolist())

    def angle_axis(self) -> AngleAxis:
        n = self.norm
        if n == 0.0:
            return AngleAxis(0.0, _EZ.copy())
        return AngleAxis(n, self.vector / n)

    def isclose(self, other: "BallClass", tol: float = 1e-12) -> bool:
        """Class equality within ``tol`` (antipodal boundary reps compare equal)."""
        d = float(np.linalg.norm(self.vector - other.vector))
        if d <= tol:
            return True
        if min(self.norm, other.norm) >= np.pi - max(tol, 1e-9):
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
    if angle < np.pi - 1e-6:
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
    if abs(d) > 8.0 * np.finfo(float).eps:
        if d < 0.0:
            axis = -axis
    else:
        # indistinguishable from a half turn: both signs reconstruct r to
        # machine precision, pick the canonical antipodal representative
        for comp in axis:
            if comp != 0.0:
                if comp < 0.0:
                    axis = -axis
                break
    return BallClass(angle * axis)


def _rotation_to_pole(ref: np.ndarray) -> np.ndarray:
    """A rotation sending the unit vector ``ref`` to +z."""
    c = float(ref @ _EZ)
    w = np.cross(ref, _EZ)
    s = float(np.linalg.norm(w))
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])  # half turn about +x
    return exp_rot(np.arctan2(s, c) * w / s)


def _in_north_set(u: np.ndarray, tol: float = 1e-9) -> bool:
    """Deterministic 'northern' rule for unit vectors (used only for tie-breaks)."""
    if u[2] > tol:
        return True
    if u[2] < -tol:
        return False
    if u[1] > tol:
        return True
    if u[1] < -tol:
        return False
    return u[0] < 0.0


def hemisphere_sign(u: np.ndarray, ref: np.ndarray) -> float:
    """+1 if the unit vector ``u`` lies in the closed hemisphere around ``ref``.

    Directions within HEMI_BAND of the equator count as the reference
    hemisphere (+1) except that exact tie-break questions are settled by the
    north-set rule after rotating ``ref`` to the pole.
    """
    c = float(u @ ref)
    if c > HEMI_BAND:
        return 1.0
    if c < -HEMI_BAND:
        return -1.0
    return 1.0 if _in_north_set(_rotation_to_pole(ref) @ u) else -1.0


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
    return np.array(_q_map(c.vector.tolist(), _as_unit3(ref_dir)))


def _q_map(v, ref):
    """Scalar form of :func:`q_map` on a ball vector and a checked unit reference, as float triples."""
    n = _norm3(v)
    if n == 0.0:
        return v
    x, y, z = v
    u = (x / n, y / n, z / n)
    t = u[0] * ref[0] + u[1] * ref[1] + u[2] * ref[2]
    if t >= -HEMI_BAND:
        if n >= math.pi - 1e-12 and abs(t) <= HEMI_BAND:
            # antipodal class with boundary direction: canonicalize the rep
            if not _in_north_set(_rotation_to_pole(np.array(ref)) @ np.array(u)):
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
    z = _as_vec3(z).tolist()
    return _quadratic_matrix(z, *_dexp_coeffs(_norm3(z)))


def _dexpinv_c2(theta: float) -> float:
    """Coefficient of hat(z)^2 in dexpinv; raises within DEXPINV_MARGIN of 2*pi."""
    if theta < SERIES_RADIUS:
        t2 = theta * theta
        return 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0 + t2 * t2 * t2 / 1209600.0
    if theta >= 2.0 * math.pi - DEXPINV_MARGIN:
        raise SingularityError(
            f"dexpinv evaluated at |z| = {theta:.6f}, within {DEXPINV_MARGIN:g} of 2*pi"
        )
    return 1.0 / (theta * theta) - math.cos(0.5 * theta) / (
        2.0 * math.sin(0.5 * theta) * theta
    )


def dexpinv_op(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dexp_op`: ``Zdot = dexpinv_op(Z) @ X`` solves the group ODE.

    Singular at ``|z| = 2*pi``; evaluation within DEXPINV_MARGIN of the
    singularity raises SingularityError (the integrator restarts segments
    long before reaching it).
    """
    z = _as_vec3(z).tolist()
    return _quadratic_matrix(z, 0.5, _dexpinv_c2(_norm3(z)))


def _dexpinv_apply(z, x) -> tuple[float, float, float]:
    """Scalar form of ``dexpinv_op(z) @ x``: ``x + (z cross x)/2 + c2 z cross (z cross x)``.

    Raises SingularityError within DEXPINV_MARGIN of ``|z| = 2*pi``, as
    :func:`dexpinv_op` does.
    """
    return _quadratic_apply(z, x, 0.5, _dexpinv_c2(_norm3(z)))
