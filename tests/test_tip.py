"""Tip trajectories and circle fits."""
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
from rotwave.tip import MAX_SAMPLES, _fit_circle, _sym_eig3

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
    assert calls == [(len(times) + 1 + 3,)]
    del traj.eval_A
    traj._samples.clear()
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


@pytest.mark.parametrize("periods, samples", [(5 - 9e-10, 5), (5, 6)])
def test_tip_period_samples_stop_at_the_time_check(periods, samples):
    # the last period sample is the largest n T within the trajectory's time
    # check, t_end + 1e-9, an absolute slack; T = 5.98 here, so 1e-9 periods
    # of slack would reach past it
    sc = build("case1", omega_bif=1.0)
    lam = 0.05
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, periods * T, ref_dir=sc.frame.x0_dir)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, [0.0], period=T)
    assert track.period_samples.shape == (samples, 3)


def test_tip_period_track_builds_dense_rows_of_the_steps_it_samples():
    sc = build("case2")
    lam = 0.01
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 39 * T, ref_dir=sc.frame.x0_dir)
    calls = []
    traj.eval_A = lambda t: calls.append(np.shape(t)) or type(traj).eval_A(traj, t)
    track = tip_trajectory(traj, sc.tip_x0, sc.r, [T / 2], period=T)
    assert calls == [(1 + 1 + 40,)] and track.period_samples.shape == (40, 3)
    # the 3 steps that the restarts and W sampled while integrating, and those
    # that hold 0 and T/2: 5 of 22
    assert sum(step.rows is not None for step in traj._steps) <= 5 < len(traj._steps)


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


def test_fit_circle_rejects_points_whose_covariance_overflows():
    # finite points 1e200 apart: the covariance is inf (LAPACK did not converge on it)
    with pytest.raises(DomainError, match="overflows"):
        fit_circle(1e200 * np.eye(3), EZ)


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


@given(
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    r=st.floats(0.1, 10.0),
    height=st.floats(-0.9, 0.9),
    n=st.integers(3, 40),
    span=st.floats(math.pi / 2, 2 * math.pi),
    log_noise=st.one_of(st.none(), st.floats(-12.0, -6.0)),
    ref=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_circle_agrees_with_the_lapack_fit(quat, r, height, n, span, log_noise, ref, seed):
    # a noisy circle in a random frame; the Jacobi fit matches eigh's to 1e-12
    assume(sum(q * q for q in quat) > 0.01 and sum(a * a for a in ref) > 0.01)
    frame = oracles.quat_to_matrix(np.array(quat))
    rng = np.random.default_rng(seed)
    rho = r * math.sqrt(1.0 - height * height)
    angles = rng.uniform(0.0, 2 * math.pi) + span * np.arange(n) / n
    local = np.stack([rho * np.cos(angles), rho * np.sin(angles), np.full(n, height * r)], 1)
    if log_noise is not None:
        local += 10.0**log_noise * r * rng.standard_normal((n, 3))
    pts = local @ frame.T
    axis, h, radius, rms = oracles.fit_circle_oracle(pts, ref)
    fit = fit_circle(pts, ref)
    angle = math.atan2(np.linalg.norm(np.cross(fit.axis, axis)), float(fit.axis @ axis))
    assert angle <= 1e-12
    assert abs(fit.height - h) <= 1e-12
    assert abs(fit.radius - radius) <= 1e-12
    assert abs(fit.rms_residual - rms) <= 1e-12 * r
    assert abs(np.linalg.norm(fit.axis) - 1.0) <= 1e-15


def near_line(offset, n=6):
    """n points along (1, 2, 2)/3 over length 4, moved off the line by ``offset`` each."""
    along = np.outer(np.linspace(-2.0, 2.0, n), [1 / 3, 2 / 3, 2 / 3]) + [0.5, -1.0, 2.0]
    off = np.outer(np.cos(np.arange(n)), unit([2.0, -1.0, 0.0]))
    return along + offset * off


@pytest.mark.parametrize(
    "points",
    [
        np.zeros((0, 3)),
        np.eye(3)[:2],
        np.tile([1.0, 2.0, 3.0], (5, 1)),
        np.tile([1e6, 2.0, 3.0], (4, 1)) + 1e-8 * np.arange(12).reshape(4, 3) ** 0.5,
        np.tile([0.3, 0.2, 0.1], (4, 1)) + 1e-14 * np.arange(12).reshape(4, 3) ** 0.5,
        np.tile([0.3, 0.2, 0.1], (4, 1)) + 1e-10 * np.arange(12).reshape(4, 3) ** 0.5,
        np.outer(np.linspace(0.0, 1.0, 6), [1.0, 1.0, 0.0]),
        near_line(0.0),
        near_line(1e-9),
        near_line(1e-8),
        near_line(1e-5),
        near_line(1e-5, n=3),
    ],
    ids=[
        "none", "two", "coincident", "coincident-far", "near-coincident", "spread-1e-10",
        "line", "line-offset-0", "near-line-1e-9", "near-line-1e-8", "near-line-1e-5",
        "near-line-1e-5-three",
    ],
)
def test_fit_circle_refuses_what_the_lapack_fit_refuses(points):
    # the same FitError decisions for coincident, collinear and near-collinear sets
    want = oracles.fit_circle_oracle(points, EZ)
    if isinstance(want, str):
        with pytest.raises(FitError) as info:
            _fit_circle(points.tolist(), EZ.tolist())
        assert str(info.value) == want
    else:
        _fit_circle(points.tolist(), EZ.tolist())


def check_eig(a):
    """_sym_eig3 of the symmetric ``a``: ascending, orthonormal, residual and
    eigenvalues within 1e-14 |a| of eigh's."""
    values, vectors = _sym_eig3(a[0, 0], a[0, 1], a[0, 2], a[1, 1], a[1, 2], a[2, 2])
    s = np.abs(a).max() or 1.0  # norms of a / s, which cannot overflow
    norm = np.linalg.norm(a / s, 2)
    v = np.array(vectors).T
    assert values == sorted(values)
    assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-14
    assert np.linalg.norm((a @ v - v * values) / s, axis=0).max() <= 1e-14 * norm
    assert np.abs(np.array(values) - np.linalg.eigh(a)[0]).max() / s <= 1e-14 * norm


def rotated(diag, quat):
    q = oracles.quat_to_matrix(np.array(quat))
    return q @ np.diag(diag) @ q.T


@given(entries=st.tuples(*[st.floats(-10.0, 10.0)] * 6))
def test_jacobi_on_random_symmetric_matrices(entries):
    a00, a01, a02, a11, a12, a22 = entries
    check_eig(np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]))


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((3, 3)),
        np.diag([3.0, -1.0, 2.0]),
        np.diag([1e-300, 0.0, -5e-324]),
        2.5 * np.eye(3),
        rotated([2.0, 2.0, -1.0], [0.3, -0.5, 0.7, 0.2]),
        rotated([1.0, 4.0, 4.0], [0.9, 0.1, -0.3, 0.4]),
        rotated([1e-3, 1e-3, 1e-3], [0.2, 0.2, 0.9, -0.1]),
        rotated([1e10, 1.0, 1e-10], [0.5, 0.5, -0.5, 0.3]),
        rotated([1e150, -1e-150, 3.0], [0.1, -0.8, 0.4, 0.6]),
        rotated([0.0, 1e-20, 1e20], [0.7, 0.7, 0.1, 0.1]),
        np.array([[1e200, 1e185, 0.0], [1e185, 1.0, 1e-30], [0.0, 1e-30, -1e-200]]),
    ],
    ids=[
        "zero", "diagonal", "diagonal-subnormal", "scalar", "repeated-low", "repeated-high",
        "near-scalar", "wide-1e20", "wide-1e300", "wide-psd", "wide-raw",
    ],
)
def test_jacobi_on_structured_symmetric_matrices(a):
    check_eig(a)


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
