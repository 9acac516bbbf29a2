"""Tip trajectories and circle fits."""
import numpy as np
import pytest

import oracles
from rotwave import (
    DomainError,
    FitError,
    ForcingSignal,
    fit_circle,
    integrate_euler,
    integrate_group,
    tip_trajectory,
)
from rotwave import flow
from rotwave.scenarios import build
from rotwave.tip import MAX_SAMPLES

EZ = np.array([0.0, 0.0, 1.0])


def constant_signal(x):
    x = np.asarray(x, dtype=float)
    return ForcingSignal(eval=lambda t, lam: x, period=lambda lam: 2 * np.pi / np.linalg.norm(x))


# ------------------------------------------------------------ tip trajectory

def test_tip_on_axis_is_fixed():
    traj = integrate_group(constant_signal(2.0 * EZ), 0.0, 3.0)
    track = tip_trajectory(traj, 3.0 * EZ, 3.0, np.linspace(0.0, 3.0, 7))
    assert np.allclose(track.points, 3.0 * EZ, atol=1e-9)


def test_tip_stays_on_sphere():
    sc = build("case3")
    lam = 0.05
    traj = integrate_group(sc.forcing(lam), lam, 2.0)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, np.linspace(0.0, 2.0, 21))
    norms = np.linalg.norm(track.points, axis=1)
    assert np.max(np.abs(norms - sc.r)) < 1e-9 * sc.r
    assert np.allclose(track.points[0], sc.tip_x0, atol=1e-12)


def test_tip_rejects_off_sphere_seed():
    traj = integrate_group(constant_signal(EZ), 0.0, 1.0)
    with pytest.raises(DomainError):
        tip_trajectory(traj, np.array([1.0, 0.0, 0.0]), 3.0, [0.0])
    with pytest.raises(DomainError):
        tip_trajectory(traj, 3.0 * EZ, -3.0, [0.0])
    with pytest.raises(DomainError):
        tip_trajectory(traj, 3.0 * EZ, 3.0, [0.0], period=0.0)
    with pytest.raises(DomainError, match="sample_times must be 1-D"):
        tip_trajectory(traj, 3.0 * EZ, 3.0, [[0.1, 0.2]])


class Unsampled:
    """A trajectory that fails the test when sampled."""

    t_end = 0.63

    def eval_A(self, t):
        raise AssertionError("sampled before the period was checked")


@pytest.mark.parametrize("period", [np.inf, np.nan, -1.0, 0.0, 1e-300, 5e-324,
                                    Unsampled.t_end / MAX_SAMPLES])
def test_tip_rejects_a_period_before_sampling(period):
    # the last three ask for at least MAX_SAMPLES period samples; the check
    # comes before any list of period times is built
    with pytest.raises(DomainError, match="period"):
        tip_trajectory(Unsampled(), 3.0 * EZ, 3.0, [0.0], period=period)


def test_tip_samples_through_one_array_call_each():
    sc = build("case2")
    lam = 0.05
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 2 * T, ref_dir=sc.frame.x0_dir)
    times = np.linspace(0.0, 2 * T, 3 * flow.BATCH_MIN)
    calls = []
    traj.eval_A = lambda t: calls.append(np.shape(t)) or type(traj).eval_A(traj, t)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, times, period=T)
    assert calls == [(len(times) + 1,), (3,)]
    del traj.eval_A
    traj._classes.clear()
    a0_inv = traj.eval_A(0.0).T
    each = np.array([traj.eval_A(t) for t in times.tolist()])
    assert track.points.tobytes() == (a0_inv @ each @ np.asarray(sc.tip_x0)).tobytes()
    # the Euler chart takes the same array calls
    euler = integrate_euler(sc.forcing(lam), lam, 0.5, 0.4)
    track = tip_trajectory(euler, 3.0 * EZ, 3.0, np.linspace(0.0, 0.5, 5), period=0.25)
    assert track.period_samples.shape == (3, 3)


def test_tip_period_samples():
    traj = integrate_group(constant_signal(2.0 * EZ), 0.0, 5.0)
    track = tip_trajectory(traj, np.array([3.0, 0.0, 0.0]), 3.0, [0.0], period=1.0)
    assert track.period_samples is not None
    assert track.period_samples.shape == (6, 3)
    # constant rotation about z: samples precess on the equator circle
    for i, p in enumerate(track.period_samples):
        expected = 3.0 * np.array([np.cos(2.0 * i), np.sin(2.0 * i), 0.0])
        assert np.allclose(p, expected, atol=1e-9)


def test_tip_equivariance_under_seed_rotation():
    # applying the trajectory commutes with rotating the whole picture
    from rotwave import exp_rot

    sc = build("case1")
    lam = 0.01
    traj = integrate_group(sc.forcing(lam), lam, 1.0)
    times = np.linspace(0.0, 1.0, 5)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, times)
    a0_inv = traj.eval_A(0.0).T
    for t, p in zip(times, track.points):
        assert np.allclose(p, a0_inv @ traj.eval_A(t) @ sc.tip_x0, atol=1e-12)


# ----------------------------------------------------------------- circle fit

def test_fit_circle_recovers_exact_circle():
    pts = oracles.circle_points(EZ, 2.0, 3.0, 12)
    fit = fit_circle(pts, EZ)
    assert np.allclose(fit.axis, EZ, atol=1e-12)
    assert abs(fit.height - 2.0) < 1e-12
    assert abs(fit.radius - oracles.SQRT_5) < 1e-12
    assert fit.rms_residual < 1e-12


def test_fit_circle_tilted_axis_orientation():
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    pts = oracles.circle_points(axis, 1.0, 1.5, 9, phase=0.3)
    fit = fit_circle(pts, ref_axis=axis)
    assert np.allclose(fit.axis, axis, atol=1e-12)
    # flipping the reference flips the reported axis
    fit_flipped = fit_circle(pts, ref_axis=-axis)
    assert np.allclose(fit_flipped.axis, -axis, atol=1e-12)


def test_fit_circle_degenerate_inputs():
    with pytest.raises(FitError):
        fit_circle(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), EZ)
    with pytest.raises(FitError):
        fit_circle(np.tile([1.0, 2.0, 3.0], (5, 1)), EZ)
    line = np.outer(np.linspace(0.0, 1.0, 6), [1.0, 1.0, 0.0])
    with pytest.raises(FitError):
        fit_circle(line, EZ)
    with pytest.raises(DomainError):
        fit_circle(np.zeros((4, 2)), EZ)
    for bad in (np.nan, np.inf):
        pts = oracles.circle_points(EZ, 2.0, 3.0, 12)
        pts[4, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            fit_circle(pts, EZ)


# ------------------------------------------------- period samples -> circles

def test_case1_period_samples_circle_about_x():
    sc = build("case1")
    lam = 0.01
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 5 * T)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, [0.0], period=T)
    assert track.period_samples.shape[0] == 6
    x_hat = np.array([np.sqrt(lam), 0.0, 2.0])
    x_hat = x_hat / np.linalg.norm(x_hat)
    fit = fit_circle(track.period_samples, ref_axis=x_hat)
    assert np.linalg.norm(fit.axis - x_hat) < 1e-6
    assert fit.rms_residual < 1e-6 * sc.r


def test_lambda_zero_circle_about_primary_axis():
    # rigid rotation: every dense sample lies on the circle about x0_hat
    sc = build("case2")
    traj = integrate_group(sc.forcing(0.0), 0.0, 1.0)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, np.linspace(0.0, 1.0, 40))
    fit = fit_circle(track.points, ref_axis=EZ)
    assert np.linalg.norm(fit.axis - EZ) < 1e-9
    assert fit.rms_residual < 1e-9 * sc.r
