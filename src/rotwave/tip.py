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

import numpy as np

from .errors import DomainError, FitError
from .so3 import _as_vec3, hemisphere_sign

__all__ = ["CircleFit", "TipTrack", "fit_circle", "tip_trajectory"]

_EZ = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class TipTrack:
    """Sampled tip path: parallel arrays of times and points (plus period samples)."""

    r: float
    x0: np.ndarray
    times: np.ndarray
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
    sample_times : array_like
        Times within the integrated range.
    period : float, optional
        When given, points at t = 0, period, 2*period, ... (as far as the
        trajectory reaches) are collected into ``period_samples``.

    Returns
    -------
    TipTrack
        Points are ``A(0)^-1 A(t) x0``, so the track starts at x0. The sampled
        matrices are stacked and multiplied in one batched matmul.
    """
    x0 = _as_vec3(x0)
    if not r > 0.0:
        raise DomainError("r must be positive")
    if abs(float(np.linalg.norm(x0)) - r) > 1e-9 * r:
        raise DomainError(f"|x0| = {np.linalg.norm(x0):.12g} is not on the sphere of radius {r!r}")
    times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    a0_inv = traj.eval_A(0.0).T

    def track(ts) -> np.ndarray:
        return a0_inv @ np.array([traj.eval_A(t) for t in ts]).reshape(-1, 3, 3) @ x0

    points = track(times.tolist())

    period_samples = None
    if period is not None:
        if not period > 0.0:
            raise DomainError("period must be positive")
        m = int(math.floor(traj.t_end / period + 1e-9))
        period_samples = track([i * period for i in range(m + 1)])
    return TipTrack(float(r), x0.copy(), times, points, period_samples)


def fit_circle(points, ref_axis=_EZ) -> CircleFit:
    """Fit a plane (hence a circle, for points on a sphere) through sample points.

    The axis is the smallest-variance direction of the centered covariance,
    oriented into the hemisphere of ``ref_axis`` (default north).

    Raises
    ------
    FitError
        For fewer than 3 points, coincident points, or collinear points
        (plane normal not determined).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DomainError(f"points must have shape (n, 3), got {pts.shape}")
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
    axis = hemisphere_sign(axis, np.asarray(ref_axis, dtype=float)) * axis
    heights = pts @ axis
    height = float(heights.mean())
    in_plane = pts - np.outer(heights, axis)
    radius = float(np.linalg.norm(in_plane, axis=1).mean())
    rms = float(np.sqrt(np.mean((heights - height) ** 2)))
    return CircleFit(axis, height, radius, rms)
