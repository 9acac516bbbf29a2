"""Frequency extraction, resonance/motion classification, drift branches."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_flow import (
    CHAIN_CASES,
    FAMILIES,
    chain_trajectory,
    composed_class,
    probe_times,
    rotation_frame,
)
from rotwave import (
    BracketError,
    DomainError,
    ForcingSignal,
    InternalInconsistency,
    MotionClass,
    ResonanceClass,
    ResonanceKind,
    as_rotation,
    bch,
    classify,
    classify_resonance,
    exp_rot,
    find_orthogonal_branch,
    fit_circle,
    integrate_group,
    lifted_frequency,
    periodic_part,
    primary_frequency,
    so3,
    tip_trajectory,
    vee,
)
from rotwave.bch import BchBranch, _bch_full
from rotwave.hopf import ORTHO_TOL
from rotwave.scenarios import Frame, build
from rotwave.so3 import _ball_vector, _exp_matrix, _norm3, _time_in_range

EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def constant_signal(x):
    x = np.asarray(x, dtype=float)
    return ForcingSignal(eval=lambda t, lam: x, period=lambda lam: 2 * np.pi / np.linalg.norm(x))


# ----------------------------------------------------------------- resonance

def test_resonance_classification():
    res = classify_resonance(2.0, 20.0)
    assert res.kind is ResonanceKind.NONRESONANT and res.k is None
    res = classify_resonance(20.0, 20.0)
    assert res.kind is ResonanceKind.RESONANT and res.k == 1
    res = classify_resonance(40.0, 20.0)
    assert res.kind is ResonanceKind.RESONANT and res.k == 2
    res = classify_resonance(0.0, 20.0)
    assert res.kind is ResonanceKind.DEGENERATE and res.k is None


def test_resonance_tolerance_is_relative():
    assert classify_resonance(20.0 * (1 + 1e-10), 20.0).kind is ResonanceKind.RESONANT
    assert classify_resonance(20.0 * (1 + 1e-8), 20.0).kind is ResonanceKind.NONRESONANT


def test_resonance_domain_checks():
    # a NaN or infinite argument, and a ratio past the float range, cannot be
    # rounded to a resonance order
    for x0_norm, omega_bif in [
        (2.0, 0.0), (-1.0, 20.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
        (1.0, math.inf), (1e300, 1e-300),
    ]:
        with pytest.raises(DomainError):
            classify_resonance(x0_norm, omega_bif)


# --------------------------------------------------------- primary frequency

def test_primary_frequency_constant_forcing():
    x = np.array([0.3, 0.0, 1.0])
    traj = integrate_group(constant_signal(x), 0.0, 2.0)
    assert np.allclose(primary_frequency(traj, 2.0), x, atol=1e-10)


def test_primary_frequency_case1():
    sc = build("case1")
    lam = 0.01
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, T)
    X = primary_frequency(traj, T)
    assert np.allclose(X, [np.sqrt(lam), 0.0, 2.0], atol=1e-6)


def test_primary_frequency_resonant_drift():
    # 1:1 resonant family: X = sqrt(lam) X1, orthogonal to the primary axis
    sc = build("example2")
    lam = 0.05
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, T)
    X = primary_frequency(traj, T)
    assert abs(np.linalg.norm(X) - oracles.SQRT_005) < 1e-7
    assert abs(X[0] - oracles.SQRT_005) < 1e-7
    assert abs(X[2]) < 1e-7


def test_primary_frequency_domain_checks():
    traj = integrate_group(constant_signal(EZ), 0.0, 1.0)
    with pytest.raises(DomainError):
        primary_frequency(traj, 2.0)
    with pytest.raises(DomainError):
        primary_frequency(traj, 0.0)


# ---------------------------------------------------------- lifted frequency

def test_lifted_nonresonant_keeps_x():
    # |x0| T0 / 2pi = 0.1 -> winding 0 -> Xf is X unchanged
    X = np.array([0.1, 0.0, 2.0])
    res = classify_resonance(2.0, 20.0)
    Xf = lifted_frequency(X, 2 * np.pi / 20.0, 2.0 * EZ, 20.0, res)
    assert np.array_equal(Xf, X)


def test_lifted_resonant_restores_turn():
    sc = build("example2")
    lam = 0.05
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, T)
    X = primary_frequency(traj, T)
    res = classify_resonance(sc.x0_norm, sc.omega_bif)
    T0 = 2 * np.pi / sc.omega_bif
    Xf = lifted_frequency(X, T0, sc.X0, 2 * np.pi / T, res)
    assert abs(np.linalg.norm(Xf) - oracles.EX2_LIFTED_NORM_005) < 1e-7
    # same rotation after one relative period
    assert np.linalg.norm(exp_rot(Xf * T) - exp_rot(X * T)) < 1e-9


def test_lifted_zero_x_at_exact_resonance():
    # at lam = 0 the resonant monodromy is the identity: X = 0, Xf = |omega| x0_hat
    res = classify_resonance(20.0, 20.0)
    T0 = 2 * np.pi / 20.0
    Xf = lifted_frequency(np.zeros(3), T0, 20.0 * EZ, 20.0, res)
    assert np.allclose(Xf, 20.0 * EZ, atol=1e-12)
    assert np.linalg.norm(exp_rot(Xf * T0) - np.eye(3)) < 1e-12


def test_lifted_zero_x_nonresonant_is_inconsistent():
    res = classify_resonance(2.0, 20.0)
    with pytest.raises(InternalInconsistency):
        lifted_frequency(np.zeros(3), 2 * np.pi / 20.0, 2.0 * EZ, 20.0, res)


def test_lifted_frequency_domain_checks():
    res = classify_resonance(20.0, 20.0)
    # T0 = 0, an infinite T0, and |x0| T0 past the float range
    for T0, x0 in [(0.0, 20.0 * EZ), (math.inf, 20.0 * EZ), (1e300, 1e10 * EZ)]:
        with pytest.raises(DomainError):
            lifted_frequency(0.1 * EX, T0, x0, 1.0, res)
    # a resonant class with |x0| = 0 cannot come from classify_resonance
    forged = ResonanceClass(ResonanceKind.RESONANT, 1)
    with pytest.raises(InternalInconsistency, match="resonant class with"):
        lifted_frequency(np.zeros(3), 2 * np.pi / 20.0, np.zeros(3), 20.0, forged)


# -------------------------------------------------------------- periodic part

def test_periodic_part_constant_forcing_is_trivial():
    x = np.array([0.2, 0.1, 1.5])
    traj = integrate_group(constant_signal(x), 0.0, 3.0)
    part = periodic_part(traj, x, x, 3.0)
    for t in (0.0, 1.0, 2.5):
        assert np.linalg.norm(part.eval_B(t) - np.eye(3)) < 1e-9
        assert np.linalg.norm(part.log_Bf(t)) < 1e-9


def test_periodic_part_domain_check():
    traj = integrate_group(constant_signal(EZ), 0.0, 1.0)
    with pytest.raises(DomainError):
        periodic_part(traj, EZ, EZ, 0.0)


def test_periodic_part_example1_explicit_exponent():
    # A = exp((X0 + eps X1) t) exp(eps P g(t)), P = 2 (X1 + X2 + x0_hat):
    # the periodic exponent must come back as eps P g(t), unreduced
    sc = build("example1")
    lam = 0.01
    eps = np.sqrt(lam)
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 2 * T)
    X = primary_frequency(traj, T)
    part = periodic_part(traj, X, X, T)
    pdir = 2.0 * (np.add(sc.frame.x1, sc.frame.x2) + sc.frame.x0_dir)
    omega = sc.omega_bif + lam
    for t in np.linspace(0.0, 2 * T, 17):
        expected = eps * pdir * np.sin(omega * t)
        assert np.linalg.norm(part.log_Bf(t) - expected) < 1e-8


def test_periodic_part_identities():
    sc = build("case1")
    lam = 0.01
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 2 * T)
    X = primary_frequency(traj, T)
    part = periodic_part(traj, X, X, T)
    assert np.linalg.norm(part.eval_B(0.0) - np.eye(3)) < 1e-9
    assert np.linalg.norm(part.eval_B(T) - np.eye(3)) < 1e-8
    for t in (0.2 * T, 0.7 * T, 1.4 * T):
        a = exp_rot(X * t) @ part.eval_B(t)
        assert np.linalg.norm(a - traj.eval_A(t)) < 1e-8
    # B^f is T-periodic
    for t in (0.1 * T, 0.5 * T):
        assert np.linalg.norm(exp_rot(part.log_Bf(t + T)) - exp_rot(part.log_Bf(t))) < 1e-7


@pytest.mark.parametrize("name, lam", CHAIN_CASES)
def test_periodic_part_is_the_composition_of_public_pieces(name, lam):
    traj, T, x0, omega_bif = chain_trajectory(name, lam)
    X = primary_frequency(traj, T)
    Xf = classify(x0, omega_bif, X, T, lam).Xf
    part = periodic_part(traj, X, Xf, T)
    for t in probe_times(traj):
        cls = composed_class(traj, t).vector
        log_bf = bch(-Xf * t, cls).vector
        assert np.array_equal(part.log_Bf(t), log_bf)
        assert np.array_equal(part.eval_B(t), exp_rot(bch(-X * t, cls).vector))
    for t in (-2e-9, traj.t_end + 2e-9):
        for f in (part.log_Bf, part.eval_B):
            with pytest.raises(DomainError):
                f(t)


def scalar_log_b(traj, neg, t):
    """The per-time chain that the periodic-part sampler inlines: the ball vector of
    ``_bch_full(neg * t, class vector at t)`` at the checked float t."""
    t = _time_in_range(t, traj.t_end)
    return _ball_vector(_bch_full([a * t for a in neg], traj._record(t)[0])[0])


def assert_sampled_as_the_scalar_chain(traj, X, Xf, t):
    """``log_Bf(t)`` and ``eval_B(t)`` are bitwise the scalar chain's, or refuse with its error;
    the BCH branch of ``log_Bf``'s product, None where it refused."""
    part = periodic_part(traj, X, Xf, 1.0)
    for f, neg, out in ((part.log_Bf, -np.asarray(Xf), np.array), (part.eval_B, -np.asarray(X), _exp_matrix)):
        try:
            want = out(scalar_log_b(traj, neg.tolist(), t))
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                f(t)
            continue
        got = f(t)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), t
    s = _time_in_range(t, traj.t_end)
    try:
        return _bch_full([-a * s for a in np.asarray(Xf).tolist()], traj._record(s)[0])[1][3]
    except DomainError:
        return None


def test_periodic_part_sampler_reaches_every_bch_branch_bitwise():
    # a rigid rotation about X composed with exp(X t): the product angle is 2 |X| t, so t = 0 is
    # the identity with two zero factors, then generic products with cos(theta) > 0 and <= 0,
    # and a half turn at t = pi / (2 |X|)
    x = np.array([0.6, -0.8, 1.2])
    n = float(np.linalg.norm(x))
    traj = integrate_group(constant_signal(x), 0.0, 3.0)
    half = math.pi / (2.0 * n)
    times = (0.0, 0.1 * half, 0.7 * half, half)
    branches = {assert_sampled_as_the_scalar_chain(traj, x, -x, t) for t in times}
    assert branches == set(BchBranch)
    # a zero factor on either side: X = 0 leaves -X t zero, and t = 0 leaves A(0) the identity
    for t in (0.0, 0.3):
        assert_sampled_as_the_scalar_chain(traj, np.zeros(3), np.zeros(3), t)
    # X^f has a finite squared norm, -X^f t does not: both refuse with the BCH's message
    big = np.array([1.2e154, 0.0, 0.0])
    with pytest.raises(DomainError, match="^expected a finite 3-vector$"):
        periodic_part(traj, x, big, 1.0).log_Bf(2.0)
    assert assert_sampled_as_the_scalar_chain(traj, big, big, 2.0) is None


def test_periodic_part_sampler_checks_the_ball_inline(monkeypatch):
    # the product of x t with the class x t of the rigid rotation is a half turn at
    # t = pi / (2 |x|), where the BCH rounds its norm to pi or one ulp either side. A norm
    # up to pi is its own ball vector, with no _ball_vector call; one past it is snapped onto
    # the sphere by _ball_vector, or refused with its message, here under a zero slack (a
    # finite product never lies further past pi, and a non-finite one the BCH refuses first)
    x = np.array([0.6, -0.8, 1.2])
    half = math.pi / (2.0 * float(np.linalg.norm(x)))
    traj = integrate_group(constant_signal(x), 0.0, 3.0)
    times = [half + k * 4e-16 for k in range(-8, 9)] + [0.1, 1.0]
    past = [t for t in times if _norm3(_bch_full((x * t).tolist(), traj._record(t)[0])[0]) > math.pi]
    assert 0 < len(past) < len(times) - 2
    sample = periodic_part(traj, x, -x, 1.0).log_Bf
    calls = []
    ball_vector = sample.__globals__["_ball_vector"]
    monkeypatch.setitem(sample.__globals__, "_ball_vector", lambda v: calls.append(v) or ball_vector(v))
    for t in times:  # every time is cached
        assert_sampled_as_the_scalar_chain(traj, x, -x, t)
        assert float(np.linalg.norm(sample(t))) <= math.pi
    assert len(calls) == 2 * len(past)
    monkeypatch.setattr(so3, "_BALL_SLACK", 0.0)
    for t in times:
        assert_sampled_as_the_scalar_chain(traj, x, -x, t)
    for t in past:
        with pytest.raises(DomainError, match=r"^ball-class vector has norm 3\.14159265358979[0-9]* > pi \+ 0$"):
            sample(t)


def test_periodic_part_sampler_on_a_scenario_is_the_scalar_chain_at_every_kind_of_time():
    sc = build("case2")
    lam = 0.05
    T = sc.period(lam)
    for warm in (False, True):
        traj = integrate_group(sc.forcing(lam), lam, 2.0, ref_dir=sc.frame.x0_dir)  # past 6 T
        X = primary_frequency(traj, T)
        Xf = classify(sc.X0, sc.omega_bif, X, T, lam).Xf
        times = [float(t) for t in np.linspace(0.0, 2.0, 40)]
        if warm:  # the batch caches every time it samples
            traj.eval_A(np.array(times))
        cached = [t in traj._samples for t in times]
        assert all(cached) if warm else not any(cached)
        for t in times:
            assert_sampled_as_the_scalar_chain(traj, X, Xf, t)
        assert all(t in traj._samples for t in times)
        # np.float64, int and -0.0 times are sampled at float(t), -0.0 with its sign in -X t
        for t in (np.float64(0.3 * T), 1, -0.0, np.float64(-0.0), np.int64(1)):
            assert_sampled_as_the_scalar_chain(traj, X, Xf, t)
        part = periodic_part(traj, X, Xf, T)
        assert part.log_Bf(np.float64(0.3 * T)).tobytes() == part.log_Bf(0.3 * T).tobytes()
        assert part.log_Bf(1).tobytes() == part.log_Bf(1.0).tobytes()
        # times out of range, or not one number, refuse with the time check's message
        for t in (-2e-9, traj.t_end + 2e-9, math.nan, math.inf, np.float64(-1.0), 10**6, True, "1.0",
                  np.array([0.1, 0.2])):
            for f in (part.log_Bf, part.eval_B):
                with pytest.raises(DomainError) as refused:
                    f(t)
                with pytest.raises(DomainError) as checked:
                    _time_in_range(t, traj.t_end)
                assert str(refused.value) == str(checked.value)


# ----------------------------------------------------------------- classify

def run_report(name, lam):
    """(X, classify's report) of one period of ``name`` at lam."""
    sc = build(name)
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, T)
    X = primary_frequency(traj, T)
    return X, classify(sc.X0, sc.omega_bif, X, T, lam)


def test_classify_case1_meander():
    X, rep = run_report("case1", 0.05)
    assert rep.resonance.kind is ResonanceKind.NONRESONANT
    assert rep.motion is MotionClass.MEANDER_O1
    assert np.array_equal(rep.Xf, X)  # no turn to restore off resonance


def test_classify_case2_orthogonal_drift():
    _, rep = run_report("case2", 0.05)
    assert rep.resonance.kind is ResonanceKind.RESONANT and rep.resonance.k == 1
    assert rep.motion is MotionClass.ORTHOGONAL_DRIFT
    assert abs(rep.ortho_defect) < 1e-6


def test_classify_case3_slow_meander():
    _, rep = run_report("case3", 0.05)
    assert rep.resonance.kind is ResonanceKind.RESONANT and rep.resonance.k == 1
    assert rep.motion is MotionClass.SLOW_MEANDER_ABOUT_X0
    assert rep.ortho_defect > 0.1


def test_classify_lambda_zero_is_rigid():
    X, rep = run_report("case1", 0.0)
    assert rep.motion is MotionClass.RIGID_ROTATION
    assert np.allclose(X, build("case1").X0, atol=1e-9)


def test_classify_periodic_solution_precedence():
    # |X| T on the lattice beats the nonresonant meander label
    X = (2 * np.pi / 0.5) * EZ
    rep = classify(2.0 * EZ, 20.0, X, 0.5, 0.3)
    assert rep.motion is MotionClass.PERIODIC_SOLUTION


def test_classify_degenerate():
    rep = classify(np.zeros(3), 20.0, 0.1 * EX, 0.5, 0.3)
    assert rep.resonance.kind is ResonanceKind.DEGENERATE
    assert rep.motion is None and rep.ortho_defect is None
    assert np.array_equal(rep.Xf, 0.1 * EX)


#: each family's (resonance kind, k, motion) at every lambda > 0
FAMILY_LABELS = {
    "case1": (ResonanceKind.NONRESONANT, None, MotionClass.MEANDER_O1),
    "case2": (ResonanceKind.RESONANT, 1, MotionClass.ORTHOGONAL_DRIFT),
    "case3": (ResonanceKind.RESONANT, 1, MotionClass.SLOW_MEANDER_ABOUT_X0),
    "example4": (ResonanceKind.RESONANT, 1, MotionClass.SLOW_MEANDER_ABOUT_X0),
    "example5": (ResonanceKind.NONRESONANT, None, MotionClass.MEANDER_O1),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_labels_hold_as_lambda_vanishes(name):
    # noise must not flip a label as lambda -> 0: at 1e-12 case2's ortho
    # defect is 1.5e-9, against ORTHO_TOL = 1e-6
    _, rep = run_report(name, 1e-12)
    assert (rep.resonance.kind, rep.resonance.k, rep.motion) == FAMILY_LABELS[name]


def test_classify_domain_checks():
    for omega_bif, T in [(20.0, 0.0), (20.0, math.inf), (math.nan, 0.3), (math.inf, 0.3)]:
        with pytest.raises(DomainError):
            classify(2.0 * EZ, omega_bif, 0.1 * EX, T, 0.3)


@pytest.mark.parametrize("lam", [math.nan, -1.0, -1e-300, math.inf])
def test_classify_rejects_a_lambda_outside_the_scenarios_domain(lam):
    # lam was read only by the lam == 0 test, so these were labelled MeanderO1
    with pytest.raises(DomainError, match="lambda"):
        classify(2.0 * EZ, 20.0, 0.1 * EX, 0.5, lam)


def test_classify_rejects_an_overflowing_winding_product():
    # |X| T = 1e310 overflows; the lattice test rounded it and raised OverflowError
    with pytest.raises(DomainError, match=r"\|X\| T"):
        classify([0.0, 0.0, 2.0], 20.0, [1e300, 0.0, 0.0], 1e10, 0.1)


@pytest.mark.parametrize("omega_lambda", [math.inf, -math.inf, math.nan])
def test_lifted_frequency_rejects_a_non_finite_omega_lambda(omega_lambda):
    # omega_lambda = inf gave [inf, nan, nan] without an error
    res = classify_resonance(20.0, 20.0)
    with pytest.raises(DomainError, match="omega_lambda"):
        lifted_frequency(0.1 * EX, 2 * np.pi / 20.0, 20.0 * EZ, omega_lambda, res)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(FAMILIES),
    lam=st.floats(1e-4, 0.1),
    u=st.floats(0.0, 3.0),
    v=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
)
def test_rotating_the_frame_conjugates_the_flow(name, lam, u, v):
    # frame equivariance: the frame R F gives A' = R A R^T, X' = R X and the
    # same resonance and motion labels (criterion 3's 1e-7 on A, criterion
    # 4's 1e-6 on X)
    R = exp_rot(np.asarray(v))
    sc = build(name)
    fr = sc.frame
    sc_r = build(name, frame=Frame(R @ fr.x0_dir, R @ fr.x1, R @ fr.x2))
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 3 * T, ref_dir=fr.x0_dir)
    traj_r = integrate_group(sc_r.forcing(lam), lam, 3 * T, ref_dir=sc_r.frame.x0_dir)
    for t in (u * T, 0.37 * T, 1.5 * T, 3 * T):
        assert np.linalg.norm(traj_r.eval_A(t) - R @ traj.eval_A(t) @ R.T) < 1e-7
    X = primary_frequency(traj, T)
    X_r = primary_frequency(traj_r, T)
    assert np.max(np.abs(X_r - R @ X)) < 1e-6
    rep = classify(sc.X0, sc.omega_bif, X, T, lam)
    rep_r = classify(sc_r.X0, sc_r.omega_bif, X_r, T, lam)
    assert rep_r.resonance.kind is rep.resonance.kind and rep_r.resonance.k == rep.resonance.k
    assert rep_r.motion is rep.motion


#: bound on max_t |log B^f(t)| / sqrt(lambda) of the nonresonant families;
#: measured up to 3.457 for case1 and 2.019 for example5, lambda in [1e-8, 0.1]
PERIODIC_PART_BOUND = 4.0


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(("case1", "example5")),
    log_lam=st.floats(-8.0, -1.0),
    v=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
)
def test_periodic_part_is_of_order_sqrt_lambda(name, log_lam, v):
    # A = exp(X^f t) B^f(t) with |log B^f| = O(sqrt(lambda)) as lambda -> 0,
    # in a random frame; the tip is sampled first, so log_Bf reads the
    # trajectory's cached class vectors as the sampling workloads do
    lam = 10.0**log_lam
    sc = build(name, frame=rotation_frame(v))
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 2 * T, ref_dir=sc.frame.x0_dir)
    X = primary_frequency(traj, T)
    part = periodic_part(traj, X, classify(sc.X0, sc.omega_bif, X, T, lam).Xf, T)
    times = np.linspace(0.0, 2 * T, 101).tolist()
    tip_trajectory(traj, sc.tip_x0, sc.r, times)
    worst = max(np.linalg.norm(part.log_Bf(t)) for t in times)
    assert worst < PERIODIC_PART_BOUND * np.sqrt(lam)


# ------------------------------------------------------------- drift finder

def test_orthogonal_branch_is_sqrt_lambda():
    sc = build("example4")
    lam = 1e-2
    mu = find_orthogonal_branch(sc.forcing_family, lam, (0.0, 0.3), sc.X0)
    assert abs(mu - 0.1) < 1e-6


@settings(max_examples=20, deadline=None)
@given(log_lam=st.floats(-8.0, -1.1), v=st.tuples(*[st.floats(-np.pi, np.pi)] * 3))
def test_resonant_branch_drifts_orthogonally_to_x0(log_lam, v):
    # the paper's resonant claim: on the example4 branch mu*(lambda) the
    # primary frequency vector is orthogonal to X0, in any frame
    lam = 10.0**log_lam
    sc = build("example4", frame=rotation_frame(v))
    mu = find_orthogonal_branch(sc.forcing_family, lam, (0.0, 0.3), sc.X0)
    sig = sc.forcing(lam, mu)
    T = sig.period(lam)
    traj = integrate_group(sig, lam, T, ref_dir=sc.frame.x0_dir)
    X = primary_frequency(traj, T)
    rep = classify(sc.X0, sc.omega_bif, X, T, lam)
    assert abs(rep.ortho_defect) < ORTHO_TOL
    assert rep.motion is MotionClass.ORTHOGONAL_DRIFT


def test_orthogonal_branch_lambda_zero():
    sc = build("example4")
    assert find_orthogonal_branch(sc.forcing_family, 0.0, (0.0, 0.3), sc.X0) == 0.0


def test_orthogonal_branch_bracket_error():
    sc = build("example4")
    with pytest.raises(BracketError):
        find_orthogonal_branch(sc.forcing_family, 1e-2, (0.2, 0.3), sc.X0)


@pytest.mark.parametrize("bracket", [(0.0, 1.0), (-1.0, 0.0)])
def test_orthogonal_branch_at_an_exact_zero_bracket_end(bracket):
    # forcing (1, 0, mu): at mu = 0 Z(T) = (T, 0, 0) exactly, so g(0) = 0.0
    def family(lam, mu):
        return ForcingSignal(eval=lambda t, l: [1.0, 0.0, mu], period=lambda l: 1.0)

    assert find_orthogonal_branch(family, 0.01, bracket, EZ) == 0.0


def test_orthogonal_branch_domain_checks():
    sc = build("example4")
    with pytest.raises(DomainError):
        find_orthogonal_branch(sc.forcing_family, 1e-2, (0.3, 0.2), sc.X0)
    with pytest.raises(DomainError):
        find_orthogonal_branch(sc.forcing_family, 1e-2, (0.0, 0.3), np.zeros(3))
    # an aperiodic forcing: the per-period objective is undefined
    def family(lam, mu):
        return ForcingSignal(eval=sc.forcing(lam, mu).eval, period=None)

    with pytest.raises(DomainError, match="periodic"):
        find_orthogonal_branch(family, 1e-2, (0.0, 0.3), sc.X0)


#: lambdas of the generic normal-form grid, and those small enough for the exponent of mu*: its
#: ratio to lambda converges as sqrt(lambda), and seed 3 at k = 2 leads with -0.07 lambda, under
#: its correction at lambda = 1e-2 (see CHANGES.md)
GENERIC_LAMS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
ASYMPTOTIC_LAMS = (1e-4, 1e-5, 1e-6)


def generic_branch(family, lam):
    """mu* of ``family`` at lam, the bracket widened from +-lam until the objective changes
    sign, and X(mu*)."""
    width = lam
    while True:
        try:
            mu = find_orthogonal_branch(family, lam, (-width, width), EZ)
            break
        except BracketError:
            width *= 2.0
            assert width < 1.0, "no sign change within |mu| < 1"
    sig = family(lam, mu)
    T = sig.period(lam)
    return mu, primary_frequency(integrate_group(sig, lam, T, ref_dir=EZ), T)


def slope(lams, values):
    """The least-squares exponent of |values| against lams, on log-log axes."""
    return float(np.polyfit(np.log(lams), np.log(np.abs(values)), 1)[0])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_resonant_claim_on_generic_normal_form_coefficients(seed, k):
    # the paper's resonant claim on coefficients not built to satisfy it: a branch mu*(lambda)
    # exists on which the drift is orthogonal to X0, mu* grows like lambda and the drift speed
    # |X(mu*)| like lambda^(k/2) = eps^k
    family = oracles.generic_normal_form(seed, k)
    mus, speeds = [], []
    for lam in GENERIC_LAMS:
        mu, X = generic_branch(family, lam)
        assert abs(X[2]) < 1e-12  # X . X0, X0 = e_z
        mus.append(mu)
        speeds.append(float(np.linalg.norm(X)))
    assert abs(slope(ASYMPTOTIC_LAMS, mus[2:]) - 1.0) < 0.05
    assert abs(slope(GENERIC_LAMS, speeds) - k / 2) < 0.05


# ------------------------------------------------------- array-like inputs

def unit_z_trajectory():
    return integrate_group(constant_signal(EZ), 0.0, 1.0)


RAGGED = [[0.1], [0.2, 0.3]]
RES = classify_resonance(20.0, 20.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tip_trajectory(unit_z_trajectory(), 3.0 * EZ, 3.0, RAGGED),
        lambda: tip_trajectory(unit_z_trajectory(), 3.0 * EZ, 3.0, ["a", 0.1]),
        lambda: fit_circle([[0, 0, 1], [0, 1], [1, 0, 0]], EZ),
        lambda: fit_circle([["a", 0, 1], [0, 1, 0], [1, 0, 0]], EZ),
        lambda: fit_circle([[0, 0, 1], [0, 1, 0], [1, 0, 0]], ref_axis=[[0], [0, 1]]),
        lambda: classify(RAGGED, 20.0, EZ, 0.3, 0.01),
        lambda: classify(20.0 * EZ, 20.0, ["a", 0.0, 1.0], 0.3, 0.01),
        lambda: classify(20.0 * EZ, 20.0, [1.0, 0.0], 0.3, 0.01),
        lambda: classify(20.0 * EZ, 20.0, [np.nan, 0.0, 1.0], 0.3, 0.01),
        lambda: lifted_frequency([1.0, 0.0], 0.3, 20.0 * EZ, 20.0, RES),
        lambda: lifted_frequency(EZ, 0.3, RAGGED, 20.0, RES),
        lambda: vee([[0, 1, 0], [-1, 0], [0, 0, 0]]),
        lambda: as_rotation([["1", 0, 0], [0, 1, 0], [0, 0, 1]]),
    ],
    ids=[
        "tip-ragged-times", "tip-string-times", "fit-ragged-points", "fit-string-points",
        "fit-ragged-ref_axis",
        "classify-ragged-x0", "classify-string-X", "classify-2-vector-X", "classify-nan-X",
        "lifted-2-vector-X", "lifted-ragged-x0",
        "vee-ragged", "as_rotation-string",
    ],
)
def test_bad_array_inputs_raise_domain_error(call):
    # ragged, non-numeric, misshaped or non-finite arrays: DomainError, never numpy's errors
    with pytest.raises(DomainError):
        call()
