"""Metamorphic tests from the SO(3) equivariance of ``Adot = A hat(X^G)``.

Rotating the forcing by a fixed R, ``X^G -> R X^G``, conjugates the flow:
``A -> R A R^T``, and every output transforms with it. These identities need
no closed form, so the forcing is passed as a user ForcingSignal, which the
integrator runs through its composed right-hand side.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_flow import FAMILIES
from rotwave import ForcingSignal, classify, exp_rot, integrate_group, primary_frequency
from rotwave.scenarios import build

#: integration error, not the identity: over 30 random rotations of the five
#: families at both lambdas the worst was 3.1e-10 for A and 3.5e-10 for X
CONJUGATION_TOL = 1e-9


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
