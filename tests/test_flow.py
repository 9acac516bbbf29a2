"""Lie-group integration: Z segments, restart chaining, charts, skew products."""
import bisect
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotwave import (
    ConfigError,
    DomainError,
    ForcingSignal,
    GimbalLockError,
    IntegratorConfig,
    SingularityError,
    SkewProductSystem,
    bch,
    classify,
    exp_rot,
    integrate_euler,
    integrate_group,
    integrate_skew_product,
    integrate_z_segment,
    periodic_part,
    primary_frequency,
    q_map,
    stuart_landau,
    tip_trajectory,
)
from rotwave import flow
from rotwave.ode import solve_ivp
from rotwave.scenarios import Frame, build
from rotwave.so3 import _dexpinv_apply

EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

X0 = 2.0 * EZ  # constant primary rotation used throughout


def constant_signal(x):
    x = np.asarray(x, dtype=float)
    return ForcingSignal(eval=lambda t, lam: x, period=lambda lam: 2 * np.pi / np.linalg.norm(x))


def aperiodic(signal):
    """The same forcing with ``period=None``: integrated directly over the whole horizon."""
    return dataclasses.replace(signal, period=None)


# -------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(atol=-1e-12)
    with pytest.raises(ConfigError):
        IntegratorConfig(restart_margin=2.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(restart_margin=0.0)


# ----------------------------------------------------------------- Z segment

def test_segment_constant_forcing_exits_at_cutoff():
    # |X0| = 2: Z = X0 t grows until |Z| = pi - 0.1
    seg = integrate_z_segment(constant_signal(X0), 0.0, 0.0, 10.0)
    t_exit = seg.t_end
    assert abs(t_exit - (np.pi - 0.1) / 2.0) < 1e-9
    for t in (0.0, 0.3, 1.0, t_exit):
        assert np.allclose(seg.eval(t), X0 * t, atol=1e-10)


def test_segment_without_restart_runs_to_t_max():
    seg = integrate_z_segment(constant_signal(0.1 * EZ), 0.0, 0.0, 2.0)
    assert seg.t_end == 2.0


def test_non_finite_forcing_rejected():
    bad = ForcingSignal(
        eval=lambda t, lam: np.array([np.nan, 0.0, 0.0]), period=lambda lam: 1.0
    )
    with pytest.raises(DomainError):
        integrate_z_segment(bad, 0.0, 0.0, 1.0)


# ------------------------------------------------------------ group equation

def test_constant_forcing_reproduces_exponential():
    # one period (pi, 3 restart segments), then the monodromy over [0, 10]
    traj = integrate_group(constant_signal(X0), 0.0, 10.0)
    for t in np.linspace(0.0, 10.0, 41):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(X0 * t)) < 1e-9


def count_solves_and_singular_stages(monkeypatch):
    """Lists that grow by one per ``solve_ivp`` call and per singular dexpinv stage."""
    solves, singular = [], []

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve_ivp(*args, **kwargs)

    def counted_apply(z, v):
        try:
            return _dexpinv_apply(z, v)
        except SingularityError:
            singular.append(1)
            raise

    monkeypatch.setattr(flow, "solve_ivp", counted_solve)
    monkeypatch.setattr(flow, "_dexpinv_apply", counted_apply)
    return solves, singular


@pytest.mark.parametrize("norm", [1.0, 10.0])
def test_rotating_wave_rejects_steps_at_the_dexpinv_singularity(norm, monkeypatch):
    # Z stays parallel to a constant X, so the error estimate vanishes and the
    # step grows until trial stages pass the dexpinv guard near |Z| = 2 pi;
    # the stepper must reject and halve those steps within one solve per segment
    x = norm * EZ
    solves, singular = count_solves_and_singular_stages(monkeypatch)
    traj = integrate_group(aperiodic(constant_signal(x)), 0.0, 200.0)
    assert singular
    assert len(solves) == len(traj.segments)
    assert traj.segments[-1].t_end == 200.0
    for t in np.linspace(0.0, 200.0, 401):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(x * t)) < 1e-10


@pytest.mark.parametrize("norm", [1.0, 10.0])
def test_rotating_wave_over_one_period_extends_to_the_whole_horizon(norm, monkeypatch):
    # the periodic form integrates one period 2 pi / norm (at the tighter
    # period tolerances its steps need not reach the guard) and extends it
    # over 32 or 318 periods
    x = norm * EZ
    solves, _ = count_solves_and_singular_stages(monkeypatch)
    traj = integrate_group(constant_signal(x), 0.0, 200.0)
    assert len(solves) == len(traj.segments) == 3
    assert traj.segments[-1].t_end == traj.T == 2 * np.pi / norm
    for t in np.linspace(0.0, 200.0, 401):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(x * t)) < 1e-10


def test_restart_chaining_is_continuous():
    traj = integrate_group(aperiodic(constant_signal(X0)), 0.0, 10.0)
    t_cut = traj.segments[0].t_end
    before = traj.eval_A(t_cut - 1e-9)
    after = traj.eval_A(t_cut + 1e-9)
    assert np.linalg.norm(after - before) < 1e-7
    assert len(traj.segments) == int(np.ceil(10.0 / ((np.pi - 0.1) / 2.0)))


def test_restart_and_period_chaining_is_continuous():
    # the period pi holds 3 restart segments; past it the monodromy takes over
    traj = integrate_group(constant_signal(X0), 0.0, 10.0)
    T = traj.T
    assert len(traj.segments) == int(np.ceil(T / ((np.pi - 0.1) / 2.0)))
    cuts = [seg.t_end for seg in traj.segments[:-1]]
    for t_cut in cuts + [n * T for n in (1, 2, 3)] + [c + 2 * T for c in cuts]:
        before = traj.eval_A(t_cut - 1e-9)
        after = traj.eval_A(t_cut + 1e-9)
        assert np.linalg.norm(after - before) < 1e-7


def test_case1_matches_closed_form_over_period():
    sc = build("case1")
    lam = 0.01
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, T)
    for t in np.linspace(0.0, T, 25):
        assert np.linalg.norm(traj.eval_A(t) - sc.closed_form(t, lam)) < 1e-8


def test_period_shift_structure():
    # A(t + T) = A(T) A(t) for T-periodic forcing
    sc = build("case1")
    lam = 0.01
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 2 * T)
    a_T = traj.eval_A(T)
    for t in (0.1 * T, 0.4 * T, 0.9 * T):
        assert np.linalg.norm(traj.eval_A(t + T) - a_T @ traj.eval_A(t)) < 1e-8


FAMILIES = ("case1", "case2", "case3", "example4", "example5")

#: direct integration over 50T at the default tolerances reaches at most
#: 2.2e-9 from the closed form (case1, lambda = 0.1); the monodromy extension
#: of one period integrated at tol / 10 stays below 3.5e-10
ERR_50T = 2.5e-9


@pytest.mark.parametrize("lam", [1e-4, 0.1])
@pytest.mark.parametrize("name", FAMILIES)
def test_period_extension_matches_direct_integration_over_50_periods(name, lam):
    sc = build(name)
    sig = sc.forcing(lam)
    T = sc.period(lam)
    t_end = 50.37 * T  # not a multiple of T
    ext = integrate_group(sig, lam, t_end, ref_dir=sc.frame.x0_dir)
    direct = integrate_group(aperiodic(sig), lam, t_end, ref_dir=sc.frame.x0_dir)
    assert ext.T == T and ext.segments[-1].t_end == T
    assert direct.T is None and direct.segments[-1].t_end == t_end
    times = [n * T for n in range(51)] + np.linspace(0.0, t_end, 101).tolist() + [t_end]
    for t in times:
        a_ext, a_direct, a_exact = ext.eval_A(t), direct.eval_A(t), sc.closed_form(t, lam)
        assert np.linalg.norm(a_ext - a_exact) < ERR_50T
        assert np.linalg.norm(a_direct - a_exact) < ERR_50T
        assert np.linalg.norm(a_ext - a_direct) < ERR_50T


@pytest.mark.parametrize("lam", [1e-4, 0.1])
@pytest.mark.parametrize("name", FAMILIES)
def test_period_extension_over_500_periods_meets_the_closed_form_bound(name, lam):
    # criterion 3's closed-form bound, 1e-7, holds at 500T through the monodromy
    sc = build(name)
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 500 * T, ref_dir=sc.frame.x0_dir)
    assert traj.segments[-1].t_end == T
    for t in np.linspace(0.0, 500 * T, 2001).tolist():
        assert np.linalg.norm(traj.eval_A(t) - sc.closed_form(t, lam)) < 1e-7


def test_horizon_shorter_than_a_period_is_integrated_directly():
    sc = build("case2")
    lam = 0.1
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 0.6 * T, ref_dir=sc.frame.x0_dir)
    assert traj.T == T and traj.W is None
    assert traj.segments[-1].t_end == 0.6 * T
    for t in np.linspace(0.0, 0.6 * T, 31):
        assert np.linalg.norm(traj.eval_A(t) - sc.closed_form(t, lam)) < 1e-9
    with pytest.raises(DomainError):
        traj.eval_A(0.7 * T)


def test_g_override_is_integrated_over_the_whole_horizon():
    # sin(2t) does not repeat with the nominal period 2 pi / (20 + lam), so
    # the forcing is aperiodic: extending one period would be wrong
    sc = build(
        "case1", g=lambda t, lam: math.sin(2.0 * t), gdot=lambda t, lam: 2.0 * math.cos(2.0 * t)
    )
    lam = 0.01
    T = sc.period(lam)
    sig = sc.forcing(lam)
    assert sig.period is None
    traj = integrate_group(sig, lam, 3.5 * T)
    assert traj.T is None and traj.W is None
    assert traj.segments[-1].t_end == 3.5 * T
    wrong = integrate_group(dataclasses.replace(sig, period=lambda lam_: T), lam, 3.5 * T)
    times = np.linspace(0.0, 3.5 * T, 36)
    assert max(np.linalg.norm(traj.eval_A(t) - sc.closed_form(t, lam)) for t in times) < 1e-8
    assert max(np.linalg.norm(wrong.eval_A(t) - sc.closed_form(t, lam)) for t in times) > 1e-3


def rotation_frame(v):
    """The frame (x0_dir, x1, x2) = columns (2, 0, 1) of exp_rot(v): right-handed."""
    r = exp_rot(v)
    return Frame(r[:, 2], r[:, 0], r[:, 1])


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(FAMILIES),
    lam=st.floats(1e-4, 0.1),
    u=st.floats(0.0, 2.0),
    v=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
)
def test_monodromy_holds_under_direct_integration(name, lam, u, v):
    # the basis of the period extension: A(t + T) = A(T) A(t) for a
    # T-periodic forcing, checked on a direct integration over [0, 3T] in a
    # random frame
    sc = build(name, frame=rotation_frame(v))
    T = sc.period(lam)
    traj = integrate_group(aperiodic(sc.forcing(lam)), lam, 3 * T, ref_dir=sc.frame.x0_dir)
    t = u * T
    a_T = traj.eval_A(T)
    assert np.linalg.norm(traj.eval_A(t + T) - a_T @ traj.eval_A(t)) < 1e-8


def test_trajectory_stays_orthogonal():
    sc = build("case3")
    lam = 0.05
    traj = integrate_group(sc.forcing(lam), lam, 3.0)
    for t in np.linspace(0.0, 3.0, 13):
        a = traj.eval_A(t)
        assert np.linalg.norm(a.T @ a - np.eye(3)) < 1e-9


def test_lambda_zero_is_rigid_rotation():
    sc = build("case2")
    traj = integrate_group(sc.forcing(0.0), 0.0, 2.0)
    x0 = sc.X0
    for t in np.linspace(0.0, 2.0, 9):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(x0 * t)) < 1e-9


def test_restart_margin_invariance():
    # halving the restart margin must not move the assembled trajectory
    sc = build("case1")
    lam = 0.01
    t_end = 4.0
    a = integrate_group(sc.forcing(lam), lam, t_end, IntegratorConfig(restart_margin=0.1))
    b = integrate_group(sc.forcing(lam), lam, t_end, IntegratorConfig(restart_margin=0.05))
    for t in np.linspace(0.0, t_end, 17):
        assert np.linalg.norm(a.eval_A(t) - b.eval_A(t)) < 1e-9


def test_class_at_is_unreduced_chain():
    # class_at composes the BCH prefix with the active segment, no hemisphere map
    traj = integrate_group(constant_signal(X0), 0.0, 3.0)
    t = 2.5
    cls = traj.class_at(t)
    assert cls.isclose(bch(np.zeros(3), X0 * t), tol=1e-9)
    # eval_Z applies the hemisphere map; both exponentiate to the same matrix
    assert np.linalg.norm(exp_rot(traj.eval_Z(t)) - exp_rot(cls.vector)) < 1e-9


def test_eval_outside_range_raises():
    traj = integrate_group(constant_signal(0.5 * EZ), 0.0, 1.0)
    with pytest.raises(DomainError):
        traj.eval_A(1.5)
    with pytest.raises(DomainError):
        traj.class_at(-0.5)
    with pytest.raises(DomainError):
        integrate_group(constant_signal(EZ), 0.0, -1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="period"):
            integrate_group(ForcingSignal(lambda t, lam: EZ, lambda lam: bad), 0.0, 1.0)


def test_non_unit_ref_dir_fails_before_integrating(monkeypatch):
    calls = []

    def counted_solve(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", counted_solve)
    with pytest.raises(DomainError, match="unit vector"):
        integrate_group(constant_signal(X0), 0.0, 10.0, ref_dir=[0.0, 0.0, 2.0])
    sys = SkewProductSystem(x_g=lambda q, lam: X0, x_n=lambda q, lam: np.zeros(2), dim_q=2)
    with pytest.raises(DomainError, match="unit vector"):
        integrate_skew_product(sys, np.zeros(2), 0.0, 10.0, ref_dir=[0.0, 1e-3, 1.0])
    assert calls == []


# --------------------------------------------------------- the sampling chain

#: the five families at a small and a large lambda, and a dim_q = 2 skew product
CHAIN_CASES = [
    (name, lam)
    for name in ("case1", "case2", "case3", "example4", "example5")
    for lam in (1e-3, 0.1)
] + [("skew", 0.04)]


@functools.lru_cache(maxsize=None)
def chain_trajectory(name, lam):
    """(GroupTrajectory, QTrajectory or None, T, X0, omega_bif).

    The horizon spans two periods T and at least 5 time units, so that the
    samples of every family reach past its integrated period and the
    Stuart-Landau skew product (integrated over its whole horizon) restarts.
    """
    if name == "skew":
        omega = 2.0
        system = SkewProductSystem(
            x_g=lambda q, lam_: X0 + q[0] * EX, x_n=stuart_landau(omega), dim_q=2
        )
        T = 2 * np.pi / omega
        traj, qtraj = integrate_skew_product(system, [np.sqrt(lam), 0.0], lam, 2 * T)
        return traj, qtraj, T, X0, omega
    sc = build(name)
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, max(2 * T, 5.0), ref_dir=sc.frame.x0_dir)
    return traj, None, T, sc.X0, sc.omega_bif


def with_neighbours(r):
    return [math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf)]


def probe_times(traj):
    """Jittered times, each restart time with its neighbouring floats (also one
    period later), every inner step boundary, each period multiple nT inside
    the horizon with its neighbouring floats, the ends, and the clamped slack
    just outside them."""
    rng = np.random.default_rng(7)
    ts = [traj.t_end * (i + rng.random()) / 60 for i in range(60)]
    for seg in traj.segments[1:]:
        ts += with_neighbours(seg.t_start)
        if traj.W is not None:
            ts += with_neighbours(seg.t_start + traj.T)
    for seg in traj.segments:
        ts += seg._dense.ts[1:-1]
    if traj.W is not None:
        for n in range(1, int(traj.t_end / traj.T) + 1):
            ts += with_neighbours(n * traj.T)
    return ts + [0.0, traj.t_end, -5e-10, traj.t_end + 5e-10]


def split(traj, t):
    """Periods n and the time tau with t = nT + tau, n as small as possible,
    after clamping t into [0, t_end]; n = 0 without a period."""
    t = min(max(t, 0.0), traj.t_end)
    if traj.W is None or t <= traj.T:
        return 0, t
    n = math.ceil(t / traj.T) - 1
    return n, t - n * traj.T


def locate(traj, tau):
    """Segment index and clamped time of tau; a restart time belongs to the later segment."""
    i = max(bisect.bisect_right([seg.t_start for seg in traj.segments], tau) - 1, 0)
    seg = traj.segments[i]
    return i, min(max(tau, seg.t_start), seg.t_end)


def composed_class(traj, t):
    """``class_at(t)`` composed from the public pieces: bch(bch(n W, prefix), Z(tau))."""
    n, tau = split(traj, t)
    i, s = locate(traj, tau)
    prefix = traj.prefixes[i].vector
    if n:
        prefix = bch(n * np.asarray(traj.W), prefix).vector
    return bch(prefix, traj.segments[i].eval(s))


@pytest.mark.parametrize("name, lam", CHAIN_CASES)
def test_sampling_chain_is_the_composition_of_public_pieces(name, lam):
    traj, qtraj, _, _, _ = chain_trajectory(name, lam)
    # the families sample past their period; all but the slow ones (|X0| = 2)
    # restart within it, and the skew product restarts over its horizon
    assert (traj.W is None) == (name == "skew")
    assert len(traj.segments) > 1 or name in ("case1", "example5")
    for t in probe_times(traj):
        cls = composed_class(traj, t)
        z = q_map(cls, traj.ref_dir)
        assert np.array_equal(traj.class_at(t).vector, cls.vector)
        assert np.array_equal(traj.eval_Z(t), z)
        assert np.array_equal(traj.eval_A(t), exp_rot(z))
        if qtraj is not None:
            i, s = locate(traj, split(traj, t)[1])
            assert np.array_equal(qtraj.eval(t), traj.segments[i]._dense(s)[3:])
    evals = [traj.class_at, traj.eval_Z, traj.eval_A] + ([qtraj.eval] if qtraj else [])
    for t in (-2e-9, traj.t_end + 2e-9):
        for f in evals:
            with pytest.raises(DomainError):
                f(t)


# ------------------------------------------------------- sample-time cache

def sampled_case(name, lam):
    """A fresh trajectory over two periods and its public samplers by name."""
    sc = build(name)
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 2 * T, ref_dir=sc.frame.x0_dir)
    X = primary_frequency(traj, T)
    part = periodic_part(traj, X, classify(sc.X0, sc.omega_bif, X, T, lam).Xf, T)
    samplers = {
        "eval_A": traj.eval_A,
        "eval_Z": traj.eval_Z,
        "class_at": lambda t: traj.class_at(t).vector,
        "log_Bf": part.log_Bf,
        "eval_Bf": part.eval_Bf,
        "eval_B": part.eval_B,
        "tip": lambda t: tip_trajectory(traj, sc.tip_x0, sc.r, [t]).points[0],
    }
    return traj, samplers


@pytest.mark.parametrize("name, lam", [("case2", 0.1), ("example4", 1e-3), ("example5", 0.1)])
def test_cached_samples_are_bitwise_the_cold_ones(name, lam):
    # every sampler, called cold on its own fresh trajectory, gives the bytes
    # it gives on a trajectory whose cache the others filled first, in any
    # order, with np.float64 times, and with 0.0 and -0.0 in either order
    warm_traj, warm = sampled_case(name, lam)
    times = probe_times(warm_traj) + [-0.0]
    rng = np.random.default_rng(3)
    for key in rng.permutation(sorted(warm)):
        for t in rng.permutation(times):
            warm[key](np.float64(t) if rng.random() < 0.5 else float(t))
    cached = [c for v in warm_traj._classes.values() for c in v]
    assert all(type(c) is float for c in [*warm_traj._classes, *cached])
    for key in sorted(warm):
        cold = sampled_case(name, lam)[1][key]
        for t in times:
            first = cold(t).tobytes()
            assert warm[key](t).tobytes() == first, (key, t)
            assert cold(t).tobytes() == first and cold(np.float64(t)).tobytes() == first
        zero = sampled_case(name, lam)[1][key]
        assert zero(-0.0).tobytes() == zero(0.0).tobytes() == cold(-0.0).tobytes()


def test_sample_cache_is_bounded_and_refills_with_the_same_values():
    traj, _ = sampled_case("case2", 0.1)
    times = np.linspace(0.0, traj.t_end, 2 * flow.CACHE_SIZE + 37).tolist()
    for _ in range(2):
        for t in times:
            z = traj.eval_Z(t)
            assert len(traj._classes) <= flow.CACHE_SIZE
            assert np.array_equal(z, q_map(traj.class_at(t), traj.ref_dir))
    assert np.array_equal(traj.eval_A(times[0]), exp_rot(traj.eval_Z(times[0])))


def test_out_of_range_time_raises_after_in_range_samples():
    traj, samplers = sampled_case("example4", 0.01)
    for f in samplers.values():
        f(0.5 * traj.t_end)
        for t in (traj.t_end + 2e-9, -2e-9, math.nan, math.inf):
            for _ in range(2):
                with pytest.raises(DomainError):
                    f(t)
    assert all(math.isfinite(t) and 0.0 <= t <= traj.t_end for t in traj._classes)


# ---------------------------------------------------------------- Euler chart

def test_euler_gimbal_lock_at_pole():
    sig = constant_signal(X0)
    with pytest.raises(GimbalLockError):
        integrate_euler(sig, 0.0, 1.0, 0.0)
    with pytest.raises(GimbalLockError):
        integrate_euler(sig, 0.0, 1.0, np.pi)
    with pytest.raises(DomainError):
        integrate_euler(sig, 0.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        integrate_euler(sig, 0.0, 1.0, 3.5)


def test_euler_pure_z_forcing_is_precession():
    # F = c e_z: phi = c t, theta and psi frozen
    c = 1.3
    theta0 = 0.7
    tr = integrate_euler(constant_signal(c * EZ), 0.0, 2.0, theta0)
    for t in (0.0, 0.5, 2.0):
        phi, theta, psi = tr.eval_angles(t)
        assert abs(phi - c * t) < 1e-10
        assert abs(theta - theta0) < 1e-10
        assert abs(psi) < 1e-10
        assert np.linalg.norm(tr.eval_A(t) - exp_rot(c * t * EZ)) < 1e-9


def test_euler_cross_checks_group_integrator():
    sc = build("case3")
    lam = 0.05
    T = sc.period(lam)
    group = integrate_group(sc.forcing(lam), lam, T)
    euler = integrate_euler(sc.forcing(lam), lam, T, sc.theta0)
    for t in np.linspace(0.0, T, 9):
        assert np.linalg.norm(euler.eval_A(t) - group.eval_A(t)) < 1e-6


def test_euler_eval_outside_range_raises():
    tr = integrate_euler(constant_signal(EZ), 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        tr.eval_angles(2.0)


# -------------------------------------------------------------- skew product

def test_skew_product_frozen_coordinates_are_rigid():
    sys = SkewProductSystem(
        x_g=lambda q, lam: X0, x_n=lambda q, lam: np.zeros(2), dim_q=2
    )
    traj, qtraj = integrate_skew_product(sys, np.array([0.3, -0.1]), 0.0, 5.0)
    for t in np.linspace(0.0, 5.0, 11):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(X0 * t)) < 1e-9
        assert np.allclose(qtraj.eval(t), [0.3, -0.1], atol=1e-12)


def test_skew_product_without_q_is_the_group_integrator():
    # one restart loop serves both: with dim_q = 0 and a q-free forcing the
    # skew product must reproduce integrate_group exactly, restart for restart
    sys = SkewProductSystem(x_g=lambda q, lam: X0, x_n=lambda q, lam: np.zeros(0), dim_q=0)
    traj_q, _ = integrate_skew_product(sys, np.zeros(0), 0.0, 10.0)
    traj = integrate_group(aperiodic(constant_signal(X0)), 0.0, 10.0)
    assert len(traj.segments) > 5
    assert [(s.t_start, s.t_end) for s in traj_q.segments] == [
        (s.t_start, s.t_end) for s in traj.segments
    ]
    for t in np.linspace(0.0, 10.0, 41):
        assert np.array_equal(traj_q.class_at(t).vector, traj.class_at(t).vector)


def test_skew_product_without_q_is_the_group_integrator_over_one_period():
    # a periodic forcing runs the same loop over [0, T] at the tolerances / 10
    sys = SkewProductSystem(x_g=lambda q, lam: X0, x_n=lambda q, lam: np.zeros(0), dim_q=0)
    T = np.pi
    cfg = IntegratorConfig()
    tight = IntegratorConfig(
        rtol=cfg.rtol / flow.PERIOD_TOL_FACTOR, atol=cfg.atol / flow.PERIOD_TOL_FACTOR
    )
    traj_q, _ = integrate_skew_product(sys, np.zeros(0), 0.0, T, tight)
    traj = integrate_group(constant_signal(X0), 0.0, 10.0, cfg)
    assert traj.T == T and traj_q.T is None
    assert len(traj.segments) > 1
    assert [(s.t_start, s.t_end) for s in traj_q.segments] == [
        (s.t_start, s.t_end) for s in traj.segments
    ]
    for t in np.linspace(0.0, T, 41):
        assert np.array_equal(traj_q.class_at(t).vector, traj.class_at(t).vector)


def test_stuart_landau_circle():
    lam = 0.25
    omega = 2.0
    sys = SkewProductSystem(
        x_g=lambda q, lam_: X0, x_n=stuart_landau(omega), dim_q=2
    )
    q0 = np.array([np.sqrt(lam), 0.0])
    _, qtraj = integrate_skew_product(sys, q0, lam, 10.0)
    for t in np.linspace(0.0, 10.0, 21):
        q = qtraj.eval(t)
        assert abs(np.linalg.norm(q) - np.sqrt(lam)) < 1e-9
    # one revolution takes 2 pi / omega
    assert np.allclose(qtraj.eval(2 * np.pi / omega), q0, atol=1e-8)


def test_skew_product_cross_checks_explicit_forcing():
    # forcing driven by the normal form equals the explicit sqrt(lam) cos form
    lam = 0.04
    omega = 2.0
    sys = SkewProductSystem(
        x_g=lambda q, lam_: X0 + q[0] * EX, x_n=stuart_landau(omega), dim_q=2
    )
    q0 = np.array([np.sqrt(lam), 0.0])
    traj_q, _ = integrate_skew_product(sys, q0, lam, 6.0)
    explicit = ForcingSignal(
        eval=lambda t, lam_: X0 + np.sqrt(lam) * np.cos(omega * t) * EX,
        period=lambda lam_: 2 * np.pi / omega,
    )
    traj_e = integrate_group(explicit, lam, 6.0)
    for t in np.linspace(0.0, 6.0, 13):
        assert np.linalg.norm(traj_q.eval_A(t) - traj_e.eval_A(t)) < 1e-8


def test_skew_product_shape_checks():
    sys = SkewProductSystem(
        x_g=lambda q, lam: X0, x_n=lambda q, lam: np.zeros(2), dim_q=2
    )
    with pytest.raises(DomainError):
        integrate_skew_product(sys, np.zeros(3), 0.0, 1.0)
    _, qtraj = integrate_skew_product(sys, np.zeros(2), 0.0, 1.0)
    with pytest.raises(DomainError):
        qtraj.eval(5.0)
