"""Independent oracles for the test suite.

Everything here is computed through a *different* route than the library
under test: rotation composition goes through unit quaternions, matrices come
from the quaternion-to-matrix formula, and singular-limit coefficients come
from extended-precision evaluation or explicit Taylor polynomials. None of
these functions import from ``rotwave``.
"""
import math

import numpy as np


def quat_from_vec(v):
    """Unit quaternion of the rotation with axis-vector v (angle = |v|)."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    h = 0.5 * n
    return np.concatenate([[math.cos(h)], (math.sin(h) / n) * v])


def quat_mul(p, q):
    """Hamilton product (scalar-first convention)."""
    w1, v1 = p[0], p[1:]
    w2, v2 = q[0], q[1:]
    return np.concatenate(
        [[w1 * w2 - float(v1 @ v2)], w1 * v2 + w2 * v1 + np.cross(v1, v2)]
    )


def quat_to_matrix(q):
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_to_ball(q):
    """Axis-vector in the closed pi-ball representing the quaternion's rotation."""
    w = float(q[0])
    vec = np.asarray(q[1:], dtype=float)
    vn = float(np.linalg.norm(vec))
    if vn < 1e-300:
        return np.zeros(3)
    ang = 2.0 * math.atan2(vn, w)  # in [0, 2*pi)
    axis = vec / vn
    if ang > math.pi:
        ang, axis = 2.0 * math.pi - ang, -axis
    return ang * axis


def bch_oracle(x, y):
    """Ball vector of exp(x)exp(y), via quaternion composition."""
    return quat_to_ball(quat_mul(quat_from_vec(x), quat_from_vec(y)))


def rotation_oracle(v):
    """Rotation matrix of an axis vector, via the quaternion route."""
    return quat_to_matrix(quat_from_vec(v))


#: the library's branch tolerance (rotwave.bch.BRANCH_TOL), restated here
BCH_BRANCH_TOL = 1e-10


def bch_branch_by_trace(x, y):
    """Branch label of bch(x, y) by the product-matrix dispatch, and cos(theta).

    This is the reference dispatch that forms exp(x) exp(y): the identity
    when |prod - I|_F <= BCH_BRANCH_TOL, a half turn when the ball angle is
    within BCH_BRANCH_TOL of pi, otherwise generic, split by the sign of
    cos(theta) = (trace(prod) - 1) / 2 against BCH_BRANCH_TOL. Labels are the
    values of rotwave.bch.BchBranch.
    """
    prod = rotation_oracle(x) @ rotation_oracle(y)
    cos_theta = float(np.clip((np.trace(prod) - 1.0) / 2.0, -1.0, 1.0))
    if float(np.linalg.norm(prod - np.eye(3))) <= BCH_BRANCH_TOL:
        return "IdentityProduct", cos_theta
    if float(np.linalg.norm(bch_oracle(x, y))) >= math.pi - BCH_BRANCH_TOL:
        return "HalfTurnProduct", cos_theta
    if cos_theta > BCH_BRANCH_TOL:
        return "GenericPositive", cos_theta
    return "GenericNonPositive", cos_theta


def ball_distance(u, v):
    """Distance between two ball vectors modulo the antipodal identification."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    direct = float(np.linalg.norm(u - v))
    flipped = (
        float(np.linalg.norm(u + v))
        + abs(float(np.linalg.norm(u)) - math.pi)
        + abs(float(np.linalg.norm(v)) - math.pi)
    )
    return min(direct, flipped)


def c2_series_ref(theta):
    """Taylor polynomial of c2 = 1/t^2 - cos(t/2)/(2 sin(t/2) t) through t^8.

    From (t/2)cot(t/2) = 1 - t^2/12 - t^4/720 - t^6/30240 - t^8/1209600 - ...
    so c2 = (1 - (t/2)cot(t/2))/t^2; the truncation error is O(theta^10).
    """
    t2 = theta * theta
    return (
        1.0 / 12.0
        + t2 / 720.0
        + t2 * t2 / 30240.0
        + t2 * t2 * t2 / 1209600.0
        + t2 * t2 * t2 * t2 / 47900160.0
    )


def dexp_coeffs_ref(theta):
    """((cos t - 1)/t^2, (t - sin t)/t^3) in extended precision.

    Below 1e-2 the closed forms cancel even in longdouble, so an
    extended-precision Taylor expansion takes over there (truncation
    ~theta^10/5e8, far below longdouble rounding at the switch).
    """
    t = np.longdouble(theta)
    if theta < 1e-2:
        t2 = t * t
        ca = -(0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0)
        cb = (1.0 / np.longdouble(6.0) - t2 / 120.0 + t2 * t2 / 5040.0
              - t2 * t2 * t2 / 362880.0)
        return float(ca), float(cb)
    ca = (np.cos(t) - 1.0) / (t * t)
    cb = (t - np.sin(t)) / (t * t * t)
    return float(ca), float(cb)


def c2_ref(theta):
    """c2 closed form in extended precision (valid for theta not tiny)."""
    t = np.longdouble(theta)
    val = 1.0 / (t * t) - np.cos(t / 2.0) / (2.0 * np.sin(t / 2.0) * t)
    return float(val)


def circle_points(axis, height, r, n, phase=0.0):
    """n exact points of the circle at signed height along axis on the r-sphere."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    # complete axis to an orthonormal triad
    probe = np.array([1.0, 0.0, 0.0])
    if abs(float(axis @ probe)) > 0.9:
        probe = np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, probe)
    u /= np.linalg.norm(u)
    w = np.cross(axis, u)
    rho = math.sqrt(r * r - height * height)
    angles = phase + 2.0 * np.pi * np.arange(n) / n
    return np.array(
        [height * axis + rho * (math.cos(a) * u + math.sin(a) * w) for a in angles]
    )


def random_axis_vectors(rng, n, max_norm):
    """n axis vectors with directions uniform on S^2 and norms uniform in [0, max_norm]."""
    out = np.empty((n, 3))
    for i in range(n):
        d = rng.normal(size=3)
        d /= max(float(np.linalg.norm(d)), 1e-300)
        out[i] = rng.uniform(0.0, max_norm) * d
    return out


# Frozen values used across the suite (derivations in comments):
# quaternion product of (0,0,pi/2) and (pi/2,0,0): q1=(c,0,0,s), q2=(c,s,0,0)
# with c=s=sqrt(2)/2 gives w=1/2 and vector (1/2,1/2,1/2), hence angle
# 2*atan2(sqrt(3)/2, 1/2) = 2*pi/3 about (1,1,1)/sqrt(3).
BCH_QUARTER_TURNS_ANGLE = 2.0943951023931953  # 2*pi/3
BCH_QUARTER_TURNS_COMPONENT = 1.2091995761561452  # (2*pi/3)/sqrt(3)

SQRT_005 = 0.22360679774997896  # sqrt(0.05)
EX2_LIFTED_NORM_005 = 20.27360679774998  # sqrt(0.05) + 20.05
SQRT_5 = 2.23606797749979  # circle radius at height 2 on the 3-sphere
