"""Independent oracles for the test suite.

Everything here is computed through a *different* route than the library
under test: rotation composition goes through unit quaternions, matrices come
from the quaternion-to-matrix formula, and singular-limit coefficients come
from extended-precision evaluation or explicit Taylor polynomials. None of
these functions import from ``rotwave``. The exception to the different
route is the composed kernel form (:func:`quadratic_apply_composed`, with
:func:`c2_composed`), which repeats the library's arithmetic in its earlier
shape to pin it bit for bit. The generic normal-form family
(:func:`generic_normal_form`) is a forcing, not an oracle: it is built as a
user of the library builds one, through ``rotwave.ForcingSignal``.
"""
import math
import random

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


def c2_composed(theta):
    """c2 in doubles as the library once computed it, below its singularity guard:
    the bitwise reference for the generated dexpinv kernels."""
    if theta < 1e-4:
        t2 = theta * theta
        return 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0 + t2 * t2 * t2 / 1209600.0
    return 1.0 / (theta * theta) - math.cos(0.5 * theta) / (2.0 * math.sin(0.5 * theta) * theta)


def norm3_composed(v):
    """Euclidean norm of a float triple, summed x, y, z as the library does."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def quadratic_apply_composed(v, w, a, b):
    """``(I + a hat(v) + b hat(v)^2) @ w`` on float triples, through ``v x w``.

    The library once applied exp and dexpinv through this function and
    :func:`norm3_composed`; composed with the library's coefficient functions
    it is the bitwise reference for the straight-line kernels.
    """
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


def exp_coeffs_composed(theta):
    """``sin(t)/t`` and ``(1 - cos t)/t^2``, series-switched at 1e-4, as the library once
    computed them in a function of their own: the bitwise reference for the Rodrigues kernels."""
    if theta < 1e-4:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0
        return a, b
    sin_half = math.sin(0.5 * theta)
    return math.sin(theta) / theta, 2.0 * sin_half * sin_half / (theta * theta)


def exp_entries_composed(v):
    """``exp_rot(v)`` as nine floats, row-major, through ``I + a hat(v) + b hat(v)^2`` as the library
    once composed it; ValueError where the library raises DomainError (a non-finite |v|)."""
    theta = norm3_composed(v)
    if not math.isfinite(theta):
        raise ValueError("expected a finite 3-vector")
    return quadratic_entries_composed(v, *exp_coeffs_composed(theta))


def quadratic_entries_composed(v, a, b):
    """``I + a hat(v) + b hat(v)^2`` as nine floats, row-major (hat(v)^2 = v v^T - |v|^2 I)."""
    x, y, z = v
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return (
        1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y,
        bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x,
        bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y),
    )


def bch_composed(x, y):
    """The library's scalar BCH of two float triples as it was once composed from helpers (the
    quaternion, the cross product and the linear combination): ``(result, fields)`` with the
    fields of ``rotwave.bch.BchBreakdown`` in order, the branch as its label. ValueError where
    the library raises DomainError (a non-finite norm)."""

    def quaternion(chx, shx, chy, shy, cos_ang):
        return chx * chy - shx * shy * cos_ang, shx * chy, chx * shy, shx * shy

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])

    def combine(a, b, c, k):
        return tuple(a * x[i] + b * y[i] + c * k[i] for i in range(3))

    nx, ny = norm3_composed(x), norm3_composed(y)
    if not math.isfinite(nx + ny):
        raise ValueError("expected a finite 3-vector")
    hx, hy = 0.5 * nx, 0.5 * ny
    chx, shx, chy, shy = math.cos(hx), math.sin(hx), math.cos(hy), math.sin(hy)
    cos_ang = 0.0
    if nx > 0.0 and ny > 0.0:
        cos_ang = min(1.0, max(-1.0, (x[0] * y[0] + x[1] * y[1] + x[2] * y[2]) / (nx * ny)))
    e, a1, b1, c1 = quaternion(chx, shx, chy, shy, cos_ang)
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
    kxy = cross(x, y)
    d1 = norm3_composed(combine(h_alpha, h_beta, h_gamma, kxy))
    d = 2.0 * d1 * abs(e)
    s = 1.0 if e >= 0.0 else -1.0
    if 2.0 * math.sqrt(2.0) * d1 <= BCH_BRANCH_TOL:
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0, "IdentityProduct", e, a1, b1, c1, d1, d, s)
    theta_q = 2.0 * math.atan2(d1, e)
    theta_ball = theta_q if theta_q <= math.pi else 2.0 * math.pi - theta_q
    if theta_ball >= math.pi - BCH_BRANCH_TOL:
        k, branch = math.pi, "HalfTurnProduct"
    else:
        k = s * theta_ball / d1
        branch = "GenericPositive" if e * e - d1 * d1 > BCH_BRANCH_TOL else "GenericNonPositive"
    alpha, beta, gamma = k * h_alpha, k * h_beta, k * h_gamma
    return combine(alpha, beta, gamma, kxy), (alpha, beta, gamma, branch, e, a1, b1, c1, d1, d, s)


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


def fit_circle_oracle(points, ref_axis):
    """(axis, height, radius, rms) of the plane fit through ``points``, or the
    FitError message as a string: the covariance eigenproblem solved by
    LAPACK (``np.linalg.eigh``), the axis oriented by the equator rule of the
    hemisphere map (the sign of ``axis . ref`` off the band |c| <= 1e-9, then
    +y, -x, +z)."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 3:
        return f"need at least 3 points to fit a circle, got {n}"
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    evals, evecs = np.linalg.eigh(centered.T @ centered / n)  # ascending
    scale = max(1.0, float(np.linalg.norm(centroid)))
    if evals[2] <= (1e-12 * scale) ** 2:
        return "points coincide; plane is undetermined"
    if evals[1] <= 1e-14 * evals[2]:
        return "points are collinear; plane normal is undetermined"
    axis = evecs[:, 0]
    c = float(axis @ np.asarray(ref_axis, dtype=float))
    x, y, z = axis
    if abs(c) > 1e-9:
        north = c > 0.0
    elif abs(y) > 1e-9:
        north = y > 0.0
    else:
        north = x < 0.0 if x != 0.0 else z > 0.0
    if not north:
        axis = -axis
    heights = pts @ axis
    height = float(heights.mean())
    radius = float(np.linalg.norm(pts - np.outer(heights, axis), axis=1).mean())
    rms = float(np.sqrt(np.mean((heights - height) ** 2)))
    return axis, height, radius, rms


def random_axis_vectors(rng, n, max_norm):
    """n axis vectors with directions uniform on S^2 and norms uniform in [0, max_norm]."""
    out = np.empty((n, 3))
    for i in range(n):
        d = rng.normal(size=3)
        d /= max(float(np.linalg.norm(d)), 1e-300)
        out[i] = rng.uniform(0.0, max_norm) * d
    return out


def generic_normal_form(seed, k):
    """The generic normal-form family ``(lam, mu) -> ForcingSignal`` of resonance order k.

    X^G(t) = (1 + mu) X0 + lam a + eps Re(e^{i Omega t} c) + lam Re(e^{2 i Omega t} e), with
    X0 = e_z, omega = 1/k, Omega = omega (1 + 0.3 lam), eps = sqrt(lam) and period
    T = 2 pi / Omega: the first terms of a center-manifold skew product A' = A X(v),
    v' = f(v), on the Hopf orbit v = eps e^{i Omega t}. The coefficients are not chosen to
    satisfy anything: a is 3 draws of ``random.Random(seed)`` in [-1, 1], then the real and
    imaginary parts of c, then those of e. It has no closed form, and it is built as a caller
    of the library builds a forcing, so it imports :class:`rotwave.ForcingSignal`.
    """
    from rotwave import ForcingSignal

    rng = random.Random(seed)
    a, cr, ci, er, ei = ([rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(5))
    omega = 1.0 / k

    def family(lam, mu):
        freq = omega * (1.0 + 0.3 * lam)
        eps = math.sqrt(lam)
        base = [(1.0 + mu) * x + lam * y for x, y in zip((0.0, 0.0, 1.0), a)]

        def xg(t, lam_):
            c1, s1 = math.cos(freq * t), math.sin(freq * t)
            c2, s2 = math.cos(2.0 * freq * t), math.sin(2.0 * freq * t)
            return [b + eps * (c1 * p - s1 * q) + lam * (c2 * u - s2 * w)
                    for b, p, q, u, w in zip(base, cr, ci, er, ei)]

        return ForcingSignal(eval=xg, period=lambda lam_: 2.0 * math.pi / freq)

    return family


# Frozen values used across the suite (derivations in comments):
# quaternion product of (0,0,pi/2) and (pi/2,0,0): q1=(c,0,0,s), q2=(c,s,0,0)
# with c=s=sqrt(2)/2 gives w=1/2 and vector (1/2,1/2,1/2), hence angle
# 2*atan2(sqrt(3)/2, 1/2) = 2*pi/3 about (1,1,1)/sqrt(3).
BCH_QUARTER_TURNS_ANGLE = 2.0943951023931953  # 2*pi/3
BCH_QUARTER_TURNS_COMPONENT = 1.2091995761561452  # (2*pi/3)/sqrt(3)

SQRT_005 = 0.22360679774997896  # sqrt(0.05)
EX2_LIFTED_NORM_005 = 20.27360679774998  # sqrt(0.05) + 20.05
SQRT_5 = 2.23606797749979  # circle radius at height 2 on the 3-sphere
