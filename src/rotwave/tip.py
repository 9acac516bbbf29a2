"""Tip trajectories on the sphere and circle fits to their period samples.

The tip of a rotating wave traces a circle: sampling the group trajectory at
integer multiples of the relative period and applying it to a seed point
x0 on the sphere of radius r gives points that lie on one plane (and on the
sphere, hence on a circle) exactly when the motion is a relative rotation
with frequency vector X -- the circle's axis recovers X/|X|.
"""
from __future__ import annotations

import math
import sys

from ._numpy import lazy_numpy
from .errors import DomainError, FitError
from .so3 import MAX_SAMPLES, _TIME_SLACK, _dot3, _float_array, _northern, _norm3, _positive, _vec3

np = lazy_numpy(globals())

__all__ = ["CircleFit", "TipTrack", "fit_circle", "tip_trajectory"]

class TipTrack:
    """Sampled tip path: the points at the sample times (plus period samples)."""

    def __init__(self, points: np.ndarray, period_samples: np.ndarray | None = None):
        self.points, self.period_samples = points, period_samples


class CircleFit:
    """Plane/axis fit of points on a sphere.

    ``axis`` is the unit plane normal oriented into the reference hemisphere,
    ``height`` the plane's signed offset along the axis, ``radius`` the mean
    in-plane distance from the axis, and ``rms_residual`` the RMS deviation
    of the points from the plane.
    """

    def __init__(self, axis: np.ndarray, height: float, radius: float, rms_residual: float):
        self.axis, self.height, self.radius, self.rms_residual = axis, height, radius, rms_residual


def tip_trajectory(traj, x0, r: float, sample_times, period: float | None = None) -> TipTrack:
    """Apply the normalized group trajectory to a seed point on the sphere.

    Parameters
    ----------
    traj : GroupTrajectory or EulerTrajectory
        Anything exposing ``eval_A`` and ``t_end``.
    x0 : array_like, shape (3,)
        Seed point with ``|x0| = r`` within 1e-9 * r.
    r : float
        Sphere radius (> 0).
    sample_times : array_like, 1-D
        Times within the integrated range.
    period : float, optional
        When given (positive and finite), points at t = n * period for n = 0,
        1, ... while ``n * period <= t_end + 1e-9``, the trajectory's time check
        (at most ``MAX_SAMPLES`` of them), are collected into ``period_samples``.

    Returns
    -------
    TipTrack
        Points are ``A(0)^-1 A(t) x0``, so the track starts at x0. One
        ``eval_A`` call on ``[0, *sample_times, *period_times]`` gives the
        matrices, as one stack for one batched matmul.
    """
    x0 = np.array(_vec3(x0))
    r = _positive(r, "r")
    if abs(float(np.linalg.norm(x0)) - r) > 1e-9 * r:
        raise DomainError(f"|x0| = {np.linalg.norm(x0):.12g} is not on the sphere of radius {r!r}")
    times = _float_array(sample_times, (None,), "sample_times")
    period_times = ()
    if period is not None:
        period = _positive(period, "period")
        t_max = traj.t_end + _TIME_SLACK
        if not t_max / period < MAX_SAMPLES:
            raise DomainError(f"t_end / period asks for more than {MAX_SAMPLES} period samples")
        n = int(t_max / period) + 1  # the quotient rounds: step down to n * period <= t_max
        while n * period > t_max:
            n -= 1
        period_times = np.arange(n + 1) * period
    stack = traj.eval_A(np.concatenate(([0.0], times, period_times)))
    tracks = stack[0].T @ stack[1:] @ x0
    return TipTrack(tracks[: len(times)], None if period is None else tracks[len(times):])


def fit_circle(points, ref_axis) -> CircleFit:
    """Fit a plane (hence a circle, for points on a sphere) through sample points.

    The axis is the smallest-variance direction of the centered covariance,
    oriented into the hemisphere of ``ref_axis``, a 3-vector that need not be
    unit. The fit runs on Python floats (:func:`_fit_circle`); this wrapper
    checks the arrays and returns the axis as an ndarray.

    Raises
    ------
    FitError
        For fewer than 3 points, coincident points, or collinear points
        (plane normal not determined).
    DomainError
        For misshaped or non-finite input, or points whose covariance
        overflows.
    """
    pts = _float_array(points, (None, 3), "points")
    ref = _float_array(ref_axis, (3,), "ref_axis")
    axis, height, radius, rms = _fit_circle(pts.tolist(), ref.tolist())
    return CircleFit(np.array(axis), height, radius, rms)


def _fit_circle(points, ref) -> tuple:
    """Scalar form of :func:`fit_circle` on a list of float triples and a float
    triple ``ref``: ``(axis, height, radius, rms_residual)``, the axis a triple.

    The covariance's eigenvectors come from :func:`_sym_eig3`. Each mean is
    a ``math.fsum`` over n; the covariance's sums run left to right.
    """
    n = len(points)
    if n < 3:
        raise FitError(f"need at least 3 points to fit a circle, got {n}")
    xs, ys, zs = zip(*points)
    cx, cy, cz = math.fsum(xs) / n, math.fsum(ys) / n, math.fsum(zs) / n
    sxx = sxy = sxz = syy = syz = szz = 0.0
    for x, y, z in points:
        x, y, z = x - cx, y - cy, z - cz
        sxx += x * x
        sxy += x * y
        sxz += x * z
        syy += y * y
        syz += y * z
        szz += z * z
    if not math.isfinite(sxx + syy + szz):
        raise DomainError("points spread past the float range: their covariance overflows")
    evals, evecs = _sym_eig3(sxx / n, sxy / n, sxz / n, syy / n, syz / n, szz / n)
    scale = max(1.0, _norm3((cx, cy, cz)))
    if evals[2] <= (1e-12 * scale) ** 2:
        raise FitError("points coincide; plane is undetermined")
    if evals[1] <= 1e-14 * evals[2]:
        raise FitError("points are collinear; plane normal is undetermined")
    ax, ay, az = evecs[0]
    if not _northern(evecs[0], _dot3(evecs[0], ref)):
        ax, ay, az = -ax, -ay, -az
    heights = [x * ax + y * ay + z * az for x, y, z in points]
    height = math.fsum(heights) / n
    radius = math.fsum(
        math.hypot(x - h * ax, y - h * ay, z - h * az) for (x, y, z), h in zip(points, heights)
    ) / n
    rms = math.sqrt(math.fsum((h - height) ** 2 for h in heights) / n)
    return (ax, ay, az), height, radius, rms


#: Jacobi sweeps after which :func:`_sym_eig3` stops whatever is left;
#: convergence is quadratic, and 2e4 random 3x3 matrices over 30 decades
#: took at most 5 (the last of them rotating nothing)
JACOBI_SWEEPS = 12

#: the (p, q) planes of one cyclic sweep, each with its third index r
_PLANES = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _sym_eig3(a00, a01, a02, a11, a12, a22) -> tuple:
    """Eigenvalues, ascending, and unit eigenvectors of the symmetric 3x3
    matrix with these six entries, as ``(values, vectors)``, ``vectors[i]``
    the float triple that belongs to ``values[i]``.

    Cyclic Jacobi (Golub & Van Loan, *Matrix Computations*, section 8.5):
    each sweep rotates the planes (0, 1), (0, 2) and (1, 2) in turn, and each
    rotation zeroes its off-diagonal entry; sweeps stop once every
    off-diagonal entry is at most machine epsilon times the largest entry of
    the matrix. Every rotation is orthogonal to working precision, so the
    result is backward stable, as LAPACK's is. The tangent of the rotation
    angle is ``t = sign(theta) / (|theta| + hypot(1, theta))``, which is
    ``1 / (2 theta)`` for large ``|theta|`` without overflowing (Golub & Van
    Loan's ``sqrt(1 + theta^2)`` would).
    """
    w = [a00, a11, a22]
    off = [a12, a02, a01]  # off[r] couples the two indices other than r
    vec = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    tol = sys.float_info.epsilon * max(abs(a) for a in (a00, a01, a02, a11, a12, a22))
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p, q, r in _PLANES:
            apq = off[r]
            if abs(apq) <= tol:
                continue
            rotated = True
            theta = (w[q] - w[p]) / (2.0 * apq)
            t = math.copysign(1.0 / (abs(theta) + math.hypot(1.0, theta)), theta)
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            w[p] -= t * apq
            w[q] += t * apq
            off[r] = 0.0
            arp, arq = off[q], off[p]
            off[q] = c * arp - s * arq
            off[p] = s * arp + c * arq
            vp, vq = vec[p], vec[q]
            vec[p] = [c * x - s * y for x, y in zip(vp, vq)]
            vec[q] = [s * x + c * y for x, y in zip(vp, vq)]
        if not rotated:
            break
    order = sorted(range(3), key=w.__getitem__)
    return [w[i] for i in order], [tuple(vec[i]) for i in order]
