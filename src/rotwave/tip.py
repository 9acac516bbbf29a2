"""Tip trajectories on the sphere and circle fits to their period samples.

The tip of a rotating wave traces a circle: sampling the group trajectory at
integer multiples of the relative period and applying it to a seed point
x0 on the sphere of radius r gives points that lie on one plane (and on the
sphere, hence on a circle) exactly when the motion is a relative rotation
with frequency vector X -- the circle's axis recovers X/|X|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import lazy_numpy
from .errors import DomainError, FitError
from .so3 import _float_array, _vec3, hemisphere_sign

np = lazy_numpy(globals())

__all__ = ["CircleFit", "TipTrack", "fit_circle", "tip_trajectory"]

#: most samples one request may ask for: tip_trajectory's period samples, and
#: the CLI's horizon x samples-per-period, the rows simulate writes per lambda
#: (one more with t = 0), which also bounds the frequency horizon
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class TipTrack:
    """Sampled tip path: the points at the sample times (plus period samples)."""

    points: np.ndarray
    period_samples: np.ndarray | None = None


@dataclass(frozen=True)
class CircleFit:
    """Plane/axis fit of points on a sphere.

    ``axis`` is the unit plane normal oriented into the reference hemisphere,
    ``height`` the plane's signed offset along the axis, ``radius`` the mean
    in-plane distance from the axis, and ``rms_residual`` the RMS deviation
    of the points from the plane.
    """

    axis: np.ndarray
    height: float
    radius: float
    rms_residual: float


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
        When given (positive and finite), points at t = 0, period, 2*period,
        ... (as far as the trajectory reaches, at most ``MAX_SAMPLES``) are
        collected into ``period_samples``.

    Returns
    -------
    TipTrack
        Points are ``A(0)^-1 A(t) x0``, so the track starts at x0. One
        ``eval_A`` call on ``[0, *sample_times]`` and one on the period times
        give the matrices, as stacks for one batched matmul each.
    """
    x0 = np.array(_vec3(x0))
    if not r > 0.0:
        raise DomainError("r must be positive")
    if abs(float(np.linalg.norm(x0)) - r) > 1e-9 * r:
        raise DomainError(f"|x0| = {np.linalg.norm(x0):.12g} is not on the sphere of radius {r!r}")
    times = _float_array(sample_times, (None,), "sample_times")
    if period is not None:
        if not 0.0 < period < math.inf:
            raise DomainError(f"period must be positive and finite, got {period!r}")
        count = traj.t_end / period + 1e-9
        if not count < MAX_SAMPLES:
            raise DomainError(f"t_end / period asks for more than {MAX_SAMPLES} period samples")
    stack = traj.eval_A(np.concatenate(([0.0], times)))
    a0_inv = stack[0].T
    points = a0_inv @ stack[1:] @ x0
    period_samples = None
    if period is not None:
        period_samples = a0_inv @ traj.eval_A(np.arange(int(count) + 1) * period) @ x0
    return TipTrack(points, period_samples)


def fit_circle(points, ref_axis) -> CircleFit:
    """Fit a plane (hence a circle, for points on a sphere) through sample points.

    The axis is the smallest-variance direction of the centered covariance,
    oriented into the hemisphere of ``ref_axis``, a 3-vector that need not be unit.

    Raises
    ------
    FitError
        For fewer than 3 points, coincident points, or collinear points
        (plane normal not determined).
    """
    pts = _float_array(points, (None, 3), "points")
    n = pts.shape[0]
    if n < 3:
        raise FitError(f"need at least 3 points to fit a circle, got {n}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / n
    evals, evecs = np.linalg.eigh(cov)  # ascending
    scale = max(1.0, float(np.linalg.norm(centroid)))
    if evals[2] <= (1e-12 * scale) ** 2:
        raise FitError("points coincide; plane is undetermined")
    if evals[1] <= 1e-14 * evals[2]:
        raise FitError("points are collinear; plane normal is undetermined")
    axis = evecs[:, 0]
    axis = hemisphere_sign(axis, _float_array(ref_axis, (3,), "ref_axis")) * axis
    heights = pts @ axis
    height = float(heights.mean())
    in_plane = pts - np.outer(heights, axis)
    radius = float(np.linalg.norm(in_plane, axis=1).mean())
    rms = float(np.sqrt(np.mean((heights - height) ** 2)))
    return CircleFit(axis, height, radius, rms)
