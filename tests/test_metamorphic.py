"""Metamorphic tests from the SO(3) equivariance of ``Adot = A hat(X^G)``.

Rotating the forcing by a fixed R, ``X^G -> R X^G``, conjugates the flow:
``A -> R A R^T``, and every output transforms with it. A T-periodic forcing
extends its first period through the monodromy as a direct integration over
the whole horizon would, and shifting the forcing in time, ``X^G(t + s)``,
gives ``A(s)^T A(t + s)``. These identities need no closed form, so the
forcing is passed as a user ForcingSignal, which the integrator runs through
its composed right-hand side.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_flow import FAMILIES
from rotwave import (
    ForcingSignal,
    classify,
    exp_rot,
    fit_circle,
    integrate_group,
    primary_frequency,
    tip_trajectory,
)
from rotwave.scenarios import build

#: integration error, not the identity: over 30 random rotations of the five
#: families at both lambdas the worst was 3.1e-10 for A and 3.5e-10 for X.
#: The monodromy and time-shift identities take the same bound (worst seen
#: 9.8e-11 and 4.5e-12), the tip track it times r (6.1e-10 at r = 3)
CONJUGATION_TOL = 1e-9

#: the circle fit through six period samples is ill-conditioned at lambda =
#: 1e-4, where they span an arc of a few 1e-3 rad: over 40 random rotations
#: its axis turned by R within 2.4e-9
AXIS_TOL = 1e-7

CASES = [(name, lam) for name in FAMILIES for lam in (1e-2, 1e-4)]


def rotated(sig, R):
    """The forcing ``R X^G(t)``, with the same period, as a user ForcingSignal."""
    return ForcingSignal(eval=lambda t, lam: R @ np.asarray(sig.eval(t, lam)), period=sig.period)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(FAMILIES),
    lam=st.sampled_from([1e-2, 1e-4]),
    v=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
)
def test_rotated_forcing_conjugates_the_flow(name, lam, v):
    # A'(t) = R A(t) R^T, X' = R X, and the same resonance and motion labels,
    # on both sides of the period that the monodromy extends from
    R = exp_rot(np.array(v))
    sc = build(name)
    sig, T = sc.forcing(lam), sc.period(lam)
    x0_dir, X0 = np.array(sc.frame.x0_dir), np.array(sc.X0)
    traj = integrate_group(sig, lam, 2 * T, ref_dir=x0_dir)
    turned = integrate_group(rotated(sig, R), lam, 2 * T, ref_dir=R @ x0_dir)
    for t in np.linspace(0.0, 2 * T, 9).tolist():
        assert np.linalg.norm(turned.eval_A(t) - R @ traj.eval_A(t) @ R.T) < CONJUGATION_TOL
    X, X_turned = primary_frequency(traj, T), primary_frequency(turned, T)
    assert np.linalg.norm(X_turned - R @ X) < CONJUGATION_TOL
    report = classify(X0, sc.omega_bif, X, T, lam)
    report_turned = classify(R @ X0, sc.omega_bif, X_turned, T, lam)
    assert report_turned.resonance.kind is report.resonance.kind
    assert report_turned.resonance.k == report.resonance.k
    assert report_turned.motion is report.motion
    assert abs(np.linalg.norm(report_turned.Xf) - np.linalg.norm(report.Xf)) < CONJUGATION_TOL


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(FAMILIES),
    lam=st.sampled_from([1e-2, 1e-4]),
    v=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
)
def test_rotated_forcing_turns_the_tip_track_and_its_circle(name, lam, v):
    # from the tip point R x0 the track and its period samples turn by R, and
    # so does the axis of the circle through the period samples over 5T
    R = exp_rot(np.array(v))
    sc = build(name)
    sig, T = sc.forcing(lam), sc.period(lam)
    x0_dir, tip = np.array(sc.frame.x0_dir), np.array(sc.tip_x0)
    traj = integrate_group(sig, lam, 5 * T, ref_dir=x0_dir)
    turned = integrate_group(rotated(sig, R), lam, 5 * T, ref_dir=R @ x0_dir)
    times = np.linspace(0.0, 5 * T, 11)
    track = tip_trajectory(traj, tip, sc.r, times, period=T)
    track_turned = tip_trajectory(turned, R @ tip, sc.r, times, period=T)
    assert len(track.period_samples) == len(track_turned.period_samples) == 6
    for a, b in [(track.points, track_turned.points), (track.period_samples, track_turned.period_samples)]:
        assert np.linalg.norm(b - a @ R.T, axis=1).max() < CONJUGATION_TOL * sc.r
    circle = fit_circle(track.period_samples, primary_frequency(traj, T))
    circle_turned = fit_circle(track_turned.period_samples, primary_frequency(turned, T))
    assert np.linalg.norm(circle_turned.axis - R @ circle.axis) < AXIS_TOL


@pytest.mark.parametrize("name, lam", CASES)
def test_period_extension_is_the_direct_integration(name, lam):
    # exp(n W) A(tau) against the same forcing passed as aperiodic; the wrapper
    # takes the direct run through the composed right-hand side
    sc = build(name)
    sig, T = sc.forcing(lam), sc.period(lam)
    ev = sig.eval
    extended = integrate_group(sig, lam, 10 * T, ref_dir=sc.frame.x0_dir)
    direct = integrate_group(ForcingSignal(lambda t, l: ev(t, l), None), lam, 10 * T, ref_dir=sc.frame.x0_dir)
    assert extended.W is not None and direct.T is None
    times = np.linspace(0.0, 10 * T, 41)
    errors = np.linalg.norm(extended.eval_A(times) - direct.eval_A(times), axis=(1, 2))
    assert errors.max() < CONJUGATION_TOL


@pytest.mark.parametrize("name, lam", CASES)
def test_shifted_forcing_gives_the_shifted_flow(name, lam):
    # X^G(t + s) gives A(s)^T A(t + s), across the period's end and its extension
    sc = build(name)
    sig, T = sc.forcing(lam), sc.period(lam)
    ev, s = sig.eval, 0.37 * T
    traj = integrate_group(sig, lam, 3 * T + s, ref_dir=sc.frame.x0_dir)
    shifted = integrate_group(
        ForcingSignal(lambda t, l: ev(t + s, l), sig.period), lam, 3 * T, ref_dir=sc.frame.x0_dir
    )
    A_s = traj.eval_A(s)
    for t in np.linspace(0.0, 3 * T, 31).tolist():
        assert np.linalg.norm(shifted.eval_A(t) - A_s.T @ traj.eval_A(t + s)) < CONJUGATION_TOL
