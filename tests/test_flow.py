"""Lie-group integration: Z segments, restart chaining, charts and the sampling chain."""
import bisect
import dataclasses
import functools
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotwave import (
    ConfigError,
    DomainError,
    ForcingSignal,
    GimbalLockError,
    IntegrationError,
    IntegratorConfig,
    SingularityError,
    bch,
    classify,
    exp_rot,
    integrate_euler,
    integrate_group,
    integrate_z_segment,
    periodic_part,
    primary_frequency,
    q_map,
    tip_trajectory,
)
from rotwave import flow
from rotwave.ode import solve_ivp
from rotwave.scenarios import Frame, build
from rotwave.so3 import _dexpinv_kernels

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
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            IntegratorConfig(rtol=bad)
        with pytest.raises(ConfigError, match="finite"):
            IntegratorConfig(atol=bad)
    # the constructor's parameters are the attributes, in order
    assert list(inspect.signature(IntegratorConfig).parameters) == list(vars(IntegratorConfig()))
    assert list(vars(IntegratorConfig())) == ["rtol", "atol"]


# ----------------------------------------------------------------- Z segment

def test_segment_constant_forcing_exits_at_cutoff():
    # |X0| = 2: Z = X0 t grows until |Z| = pi - 0.1
    seg = integrate_z_segment(constant_signal(X0), 0.0, 0.0, 10.0)
    t_exit = seg.ts[-1]
    assert abs(t_exit - (np.pi - 0.1) / 2.0) < 1e-9
    for t in (0.0, 0.3, 1.0, t_exit):
        assert np.allclose(seg(t), X0 * t, atol=1e-10)


def test_segment_without_restart_runs_to_t_max():
    seg = integrate_z_segment(constant_signal(0.1 * EZ), 0.0, 0.0, 2.0)
    assert seg.ts[-1] == 2.0


def test_non_finite_forcing_rejected():
    # finite components whose squared norm overflows count as non-finite,
    # whatever container the forcing returns them in
    for kind in (list, tuple, np.array):
        for value in ([math.nan, 0.0, 0.0], [1e200, 1e200, 0.0]):
            bad = ForcingSignal(eval=lambda t, lam: kind(value), period=lambda lam: 1.0)
            with pytest.raises(DomainError):
                integrate_z_segment(bad, 0.0, 0.0, 1.0)
            # from t = 0.25 on, so that the right-hand side meets it, not the ref_dir check
            late = ForcingSignal(
                eval=lambda t, lam: kind(value) if t > 0.25 else [0.0, 0.0, 1.0], period=None
            )
            with pytest.raises(DomainError, match="non-finite or misshaped value"):
                integrate_group(late, 0.0, 1.0)


def test_zero_forcing_at_the_origin_needs_a_ref_dir():
    # the default hemisphere reference is the direction of X^G(0, 0)
    zero = ForcingSignal(eval=lambda t, lam: [0.0, 0.0, t], period=None)
    with pytest.raises(DomainError, match="pass ref_dir explicitly"):
        integrate_group(zero, 0.0, 1.0)
    traj = integrate_group(zero, 0.0, 1.0, ref_dir=EZ)
    assert np.linalg.norm(traj.eval_A(1.0) - exp_rot(0.5 * EZ)) < 1e-12


def singular_past_half(t, lam):
    """A forcing whose every evaluation past t = 0.5 raises SingularityError."""
    if t > 0.5:
        raise SingularityError(f"t = {t!r} is past the wall")
    return [0.0, 0.0, 1.0]


def test_segment_solve_that_cannot_pass_a_singularity_fails():
    # the stepper halves every step that reaches past t = 0.5 until the step
    # underflows; the solve's failure is an IntegrationError, not a short
    # trajectory
    with pytest.raises(IntegrationError, match="segment solve failed at t=0.49999"):
        integrate_group(ForcingSignal(singular_past_half, None), 0.0, 1.0)
    with pytest.raises(IntegrationError, match="euler-chart solve failed at t=0.49999"):
        integrate_euler(ForcingSignal(singular_past_half, None), 0.0, 1.0, 0.5)


def test_restart_that_makes_no_progress_stalls():
    # |X| = 1e13 reaches the restart cutoff pi - 0.1 within 3e-13, below the
    # loop's 1e-12 progress slack
    fast = ForcingSignal(eval=lambda t, lam: [0.0, 0.0, 1e13], period=None)
    with pytest.raises(IntegrationError, match="stalled at t=0.0"):
        integrate_group(fast, 0.0, 1.0)


@pytest.mark.parametrize("t_end", [1e-12, 1e-13])
def test_a_horizon_within_the_progress_slack_is_no_stall(t_end):
    # one segment reaches t_end; at or below the loop's 1e-12 slack that
    # progress was counted as a stall
    sc = build("case1")
    sig = sc.forcing(0.01)
    runs = [
        integrate_group(sig, 0.01, t_end),
        integrate_group(aperiodic(sig), 0.01, t_end),
    ]
    for traj in runs:
        assert len(traj.segments) == 1 and traj.segments[0].ts[-1] == t_end
        assert np.linalg.norm(traj.eval_A(t_end) - np.eye(3)) < 1e-11


def test_large_constant_forcing_integrates_through_the_initial_step_probe():
    # the initial-step heuristic probes at h0 = 1e-6, where Z = 10 lies past
    # the dexpinv singularity; the probe is retried at half the step
    x = np.array([1e7, 0.0, 0.0])
    traj = integrate_group(ForcingSignal(eval=lambda t, lam: x.tolist(), period=None), 0.0, 1e-5)
    for t in np.linspace(0.0, 1e-5, 41):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(x * t)) < 1e-9


# ------------------------------------------------------------ group equation

def test_constant_forcing_reproduces_exponential():
    # one period (pi, 3 restart segments), then the monodromy over [0, 10]
    traj = integrate_group(constant_signal(X0), 0.0, 10.0)
    for t in np.linspace(0.0, 10.0, 41):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(X0 * t)) < 1e-9


def count_solves_and_singular_stages(monkeypatch):
    """Lists that grow by one per ``solve_ivp`` call and per singular dexpinv stage."""
    solves, singular = [], []
    c2, apply = _dexpinv_kernels()

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve_ivp(*args, **kwargs)

    def counted_apply(z, v):
        try:
            return apply(z, v)
        except SingularityError:
            singular.append(1)
            raise

    monkeypatch.setattr(flow, "solve_ivp", counted_solve)
    monkeypatch.setattr(flow, "_dexpinv_kernels", lambda: (c2, counted_apply))
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
    assert traj.segments[-1].ts[-1] == 200.0
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
    assert traj.segments[-1].ts[-1] == traj.T == 2 * np.pi / norm
    for t in np.linspace(0.0, 200.0, 401):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(x * t)) < 1e-10


def test_restart_chaining_is_continuous():
    traj = integrate_group(aperiodic(constant_signal(X0)), 0.0, 10.0)
    t_cut = traj.segments[0].ts[-1]
    before = traj.eval_A(t_cut - 1e-9)
    after = traj.eval_A(t_cut + 1e-9)
    assert np.linalg.norm(after - before) < 1e-7
    assert len(traj.segments) == int(np.ceil(10.0 / ((np.pi - 0.1) / 2.0)))


def test_restart_and_period_chaining_is_continuous():
    # the period pi holds 3 restart segments; past it the monodromy takes over
    traj = integrate_group(constant_signal(X0), 0.0, 10.0)
    T = traj.T
    assert len(traj.segments) == int(np.ceil(T / ((np.pi - 0.1) / 2.0)))
    cuts = [seg.ts[-1] for seg in traj.segments[:-1]]
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
    assert ext.T == T and ext.segments[-1].ts[-1] == T
    assert direct.T is None and direct.segments[-1].ts[-1] == t_end
    times = [n * T for n in range(51)] + np.linspace(0.0, t_end, 101).tolist() + [t_end]
    for t in times:
        a_ext, a_direct, a_exact = ext.eval_A(t), direct.eval_A(t), sc.closed_form(t, lam)
        assert np.linalg.norm(a_ext - a_exact) < ERR_50T
        assert np.linalg.norm(a_direct - a_exact) < ERR_50T
        assert np.linalg.norm(a_ext - a_direct) < ERR_50T


@pytest.mark.parametrize(
    "lam, periods",
    [
        pytest.param(1e-4, 500, id="0.0001"),
        pytest.param(0.1, 500, id="0.1"),
        # the error grows as the period count: at 1e5 T the worst is 4.5e-8
        # (case1, lambda = 1e-2); at lambda = 0.1 case1 and case2 exceed 1e-7 there
        pytest.param(1e-4, 100_000, id="0.0001-1e5T"),
        pytest.param(1e-2, 100_000, id="0.01-1e5T"),
    ],
)
@pytest.mark.parametrize("name", FAMILIES)
def test_period_extension_over_500_periods_meets_the_closed_form_bound(name, lam, periods):
    # criterion 3's closed-form bound, 1e-7, holds at 500T, and at 1e5 T for
    # the smaller lambdas, through the monodromy
    sc = build(name)
    T = sc.period(lam)
    t_end = periods * T
    traj = integrate_group(sc.forcing(lam), lam, t_end, ref_dir=sc.frame.x0_dir)
    assert traj.segments[-1].ts[-1] == T
    times = np.linspace(0.0, t_end, 2001).tolist() + np.linspace(t_end - T, t_end, 21).tolist()
    for t in times:
        assert np.linalg.norm(traj.eval_A(t) - sc.closed_form(t, lam)) < 1e-7


def test_horizon_shorter_than_a_period_is_integrated_directly():
    sc = build("case2")
    lam = 0.1
    T = sc.period(lam)
    traj = integrate_group(sc.forcing(lam), lam, 0.6 * T, ref_dir=sc.frame.x0_dir)
    assert traj.T == T and traj.W is None
    assert traj.segments[-1].ts[-1] == 0.6 * T
    for t in np.linspace(0.0, 0.6 * T, 31):
        assert np.linalg.norm(traj.eval_A(t) - sc.closed_form(t, lam)) < 1e-9
    with pytest.raises(DomainError):
        traj.eval_A(0.7 * T)


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
    x0 = np.array(sc.X0)
    for t in np.linspace(0.0, 2.0, 9):
        assert np.linalg.norm(traj.eval_A(t) - exp_rot(x0 * t)) < 1e-9


def test_restart_margin_invariance(monkeypatch):
    # halving the restart margin moves the restarts, not the assembled trajectory
    lam = 0.01
    t_end = 4.0
    for name in ("case1", "case2"):  # case2 restarts inside its period, case1 does not
        sc = build(name)
        monkeypatch.setattr(flow, "RESTART_MARGIN", 0.1)
        a = integrate_group(sc.forcing(lam), lam, t_end)
        monkeypatch.setattr(flow, "RESTART_MARGIN", 0.05)
        b = integrate_group(sc.forcing(lam), lam, t_end)
        for t in np.linspace(0.0, t_end, 17):
            assert np.linalg.norm(a.eval_A(t) - b.eval_A(t)) < 1e-9
    assert [seg.ts[-1] for seg in a.segments] != [seg.ts[-1] for seg in b.segments]


def test_each_restart_segment_starts_with_the_last_step_before_it(monkeypatch):
    # a restart changes the chart, not the dynamics: only the first segment
    # takes the initial-step heuristic, whose first step at Z = 0 is 1e-4
    sc, lam = build("case2"), 0.01
    T = sc.period(lam)
    first_steps = []
    solve = flow.solve_ivp

    def recorded_solve(fun, t_span, y0, rtol, atol, event, first_step):
        first_steps.append(first_step)
        return solve(fun, t_span, y0, rtol, atol, event, first_step)

    monkeypatch.setattr(flow, "solve_ivp", recorded_solve)
    segments = integrate_group(sc.forcing(lam), lam, T).segments
    assert len(segments) == len(first_steps) >= 3
    assert first_steps[0] is None and math.isclose(segments[0].interpolants[0].h, 1e-4)
    for before, seg, h in zip(segments, segments[1:], first_steps[1:]):
        assert h == before.interpolants[-1].h
        # the first trial step is accepted here; t + h - t rounds h
        assert math.isclose(seg.interpolants[0].h, min(h, T - seg.ts[0]), rel_tol=1e-12)
        assert seg.interpolants[0].h > 1e-3


def test_a_first_step_replaces_the_initial_step_heuristic():
    sig = constant_signal(X0)
    cold = integrate_z_segment(sig, 0.0, 0.0, 2.0)
    warm = integrate_z_segment(sig, 0.0, 0.0, 2.0, first_step=0.05)
    capped = integrate_z_segment(sig, 0.0, 0.0, 0.01, first_step=0.05)
    assert cold.interpolants[0].h < 1e-3 and warm.interpolants[0].h == 0.05
    assert capped.ts == [0.0, 0.01]
    assert np.linalg.norm(np.subtract(warm(1.0), cold(1.0))) < 1e-10
    with pytest.raises(DomainError, match="first_step"):
        integrate_z_segment(sig, 0.0, 0.0, 2.0, first_step=0.0)


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


def test_a_non_unit_direction_is_named_by_its_parameter():
    with pytest.raises(DomainError, match="^ref_dir must be a unit vector"):
        integrate_group(constant_signal(X0), 0.0, 1.0, ref_dir=[2.0, 0.0, 0.0])


def test_non_unit_ref_dir_fails_before_integrating(monkeypatch):
    calls = []

    def counted_solve(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", counted_solve)
    with pytest.raises(DomainError, match="unit vector"):
        integrate_group(constant_signal(X0), 0.0, 10.0, ref_dir=[0.0, 0.0, 2.0])
    assert calls == []


# ------------------------------------------------ the generated right-hand sides

#: (name, overrides, mu) of every forcing family, and example4 at k = 2, 3 off mu = 0
GENERATED_CASES = [(name, {}, None) for name in (
    "case1", "case2", "case3", "example1", "example2", "example3", "example4", "example5"
)] + [("example4", {"k": 2}, 0.1), ("example4", {"k": 3}, 0.2), ("example4", {}, 0.05)]


#: lambda as each kind of number: a float, an int, a numpy.float64, a numpy.float32 and a 0-d array
LAMBDA_KINDS = [0.05, 1, np.float64(0.05), np.float32(0.05), np.array(0.05)]


def is_generated(rhs) -> bool:
    return rhs.__code__.co_filename in ("<conjugated forcing>", "<collinear forcing>")


def generated_and_composed(sc, lam, mu):
    """The right-hand side that the integrator runs for a built-in forcing at lam, which is the
    generated one whatever number lam is, and the composed one."""
    xg = sc.forcing(lam, mu).eval
    assert xg._fused_rhs[0] is xg
    rhs = flow._z_rhs(xg, lam)
    assert is_generated(rhs)
    _, apply = _dexpinv_kernels()
    return rhs, lambda t, z: apply(z, flow._check_forcing_value(xg(t, lam), t))


def outcome(rhs, t, z):
    """The bits of ``rhs(t, z)``, or the type and message of what it raises."""
    try:
        return [v.hex() for v in rhs(t, z)]
    except Exception as exc:
        return type(exc), str(exc)


def random_states(rng, n):
    """(t, Z) pairs: t on [0, 3] and at or just past 0, where exp's angle is below
    SERIES_RADIUS; |Z| below SERIES_RADIUS, between it and 2 pi, and within
    DEXPINV_MARGIN of 2 pi and past it, where dexpinv raises."""
    ts = np.concatenate([rng.uniform(0.0, 3.0, n), 10.0 ** rng.uniform(-12, -6, n), [0.0]])
    norms = np.concatenate([
        10.0 ** rng.uniform(-12, -4, n),
        rng.uniform(1e-4, 2 * np.pi - 1e-3, n),
        2 * np.pi + rng.uniform(-2e-6, 1e-6, n),
        [0.0],
    ])
    dirs = rng.normal(size=(len(norms), 3))
    zs = dirs / np.linalg.norm(dirs, axis=1)[:, None] * norms[:, None]
    return [(t, z) for t, z in zip(rng.permutation(np.resize(ts, len(zs))).tolist(), zs.tolist())]


@pytest.mark.parametrize("name, overrides, mu", GENERATED_CASES)
def test_generated_rhs_is_bitwise_the_composed_one(name, overrides, mu):
    rng = np.random.default_rng(22)
    sc = build(name, **overrides)
    states = random_states(rng, 60)
    seen = set()
    # both compute with float(lam), whatever kind of number lam is
    for lam in (0.0, -0.0, 1e-10, 1e-4, float(rng.uniform(0.0, 0.1)), *LAMBDA_KINDS):
        fused, composed = generated_and_composed(sc, lam, mu)
        for t, z in states:
            got = outcome(fused, t, z)
            assert got == outcome(composed, t, z), (name, lam, t, z)
            seen.add(got[0] if isinstance(got, tuple) else float)
    assert seen == {float, SingularityError}


#: (name, overrides, lam, mu, times) of a built-in forcing whose value is not a finite
#: 3-vector: |X^G| ~ 1e300, whose squared norm overflows, and a phase or a Rodrigues
#: angle that overflows, where math's sin refuses the infinite argument
OVERFLOWING_FORCINGS = [
    pytest.param("case1", {"x0_norm": 1e300}, 0.05, None, (0.1, 0.7), id="case1"),
    pytest.param("example5", {"x0_norm": 1e300}, 0.05, None, (0.1, 0.7), id="example5"),
    *[
        pytest.param(name, overrides, lam, mu, (t,), id=f"{name}-{label}")
        for name, overrides, lam, mu, t, label in [
            ("example2", {"x0_norm": 1e154, "omega_bif": 1e154}, 0.05, None, 2.0, "x0_norm=1e154"),
            ("example3", {"x0_norm": 1e154, "omega_bif": 1e154}, 0.05, None, 2.0, "x0_norm=1e154"),
            ("case2", {}, 1e308, None, 0.3, "lam=1e308"),
            ("example4", {}, 0.05, 1e154, 2.0, "mu=1e154"),
            ("example2", {}, 0.05, None, 1e300, "t=1e300"),
            ("case1", {}, 0.05, None, math.inf, "t=inf"),
            ("example5", {}, 0.05, None, math.inf, "t=inf"),
            ("case1", {}, 0.05, None, 1e308, "t=1e308"),
        ]
    ],
]


@pytest.mark.parametrize("name, overrides, lam, mu, times", OVERFLOWING_FORCINGS)
def test_generated_rhs_raises_the_composed_error_for_an_overflowing_forcing(name, overrides, lam, mu, times):
    # the eval returns a triple with a non-finite squared norm, never math's
    # ValueError, and the value check fires before dexpinv's singularity guard
    sc = build(name, **overrides)
    fused, composed = generated_and_composed(sc, lam, mu)
    for t in times:
        x0, x1, x2 = sc.forcing(lam, mu).eval(t, lam)
        assert not math.isfinite(x0 * x0 + x1 * x1 + x2 * x2)
        want = (DomainError, f"forcing returned a non-finite or misshaped value at t={t!r}")
        for z in ([0.0, 0.0, 0.0], [2 * np.pi, 0.0, 0.0]):
            assert outcome(fused, t, z) == outcome(composed, t, z) == want


@pytest.mark.parametrize("name, overrides, mu", GENERATED_CASES)
def test_integration_takes_the_same_steps_through_the_generated_rhs(name, overrides, mu, monkeypatch):
    # every kind of number integrates as its float does, and a wrapped eval, as
    # a tracer makes it, takes the composed path: the same steps, the same
    # right-hand-side calls and the same samples
    sc = build(name, **overrides)
    solves, checks = [], []

    def recorded_solve(*args, **kwargs):
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    def counted_check(x, t):
        checks.append(t)
        return check(x, t)

    check = flow._check_forcing_value
    monkeypatch.setattr(flow, "solve_ivp", recorded_solve)
    monkeypatch.setattr(flow, "_check_forcing_value", counted_check)

    def segment(signal, lam):
        return flow.integrate_z_segment(signal, lam, 0.0, 0.01).ts

    def run(signal, lam):
        """(period, (steps, samples) of 3.5 periods, checks made)."""
        solves.clear()
        checks.clear()
        T = sc.period(lam, mu)
        traj = integrate_group(signal, lam, 3.5 * T, ref_dir=sc.frame.x0_dir)
        samples = traj.eval_A(np.linspace(0.0, traj.t_end, 97)).tobytes()
        steps = [(r.nfev, len(r.t) - 1, r.singular_rejections, r.t) for r in solves]
        return T, (steps, samples), len(checks)

    for lam in LAMBDA_KINDS:
        sig = sc.forcing(lam, mu)
        wrapped = dataclasses.replace(sig, eval=functools.wraps(sig.eval)(lambda t, l: sig.eval(t, l)))
        reference = sc.forcing(float(lam), mu)
        # a short segment first: a lambda whose sums stayed float32 would take
        # thousands of times the steps
        assert segment(sig, lam) == segment(wrapped, lam) == segment(reference, float(lam)), lam
        want = run(reference, float(lam))
        fused, composed = run(sig, lam), run(wrapped, lam)
        assert type(fused[0]) is float, lam
        assert fused == want and want[2] == 0, lam
        assert composed[:2] == want[:2] and composed[2] > 0, lam


def test_kernels_compile_at_first_use_once_per_shape():
    # import rotwave, bch and --dump-config compile nothing; the families'
    # first integrations compile the DOP853 step and the two forcing shapes
    code = """if True:
        import contextlib, io, rotwave
        from rotwave import flow, ode, scenarios, so3
        from rotwave.cli import main
        caches = (ode._step_kernel, so3._dexpinv_kernels, flow._shape_kernel)
        with contextlib.redirect_stdout(io.StringIO()):
            main(["bch", "0", "0", "1", "1", "0", "0", "--check"])
            main(["simulate", "--dump-config"])
        print([c.cache_info().currsize for c in caches])
        for name in scenarios.available():
            rotwave.verify_against_closed_form(scenarios.build(name), 0.01)
        print([c.cache_info().currsize for c in caches])
    """
    env = dict(os.environ, PYTHONPATH=str(Path(flow.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.stdout.splitlines() == ["[0, 0, 0]", "[1, 0, 2]"], run.stderr


# --------------------------------------------------------- the sampling chain

#: the five families at a small and a large lambda, and case2 passed as aperiodic
CHAIN_CASES = [
    (name, lam)
    for name in ("case1", "case2", "case3", "example4", "example5")
    for lam in (1e-3, 0.1)
] + [("case2-aperiodic", 0.04)]


@functools.lru_cache(maxsize=None)
def chain_trajectory(name, lam):
    """(GroupTrajectory, T, X0, omega_bif).

    The horizon spans two periods T and at least 5 time units, so that the
    samples of every family reach past its integrated period. case2 passed as
    aperiodic is integrated directly over two periods, and restarts there.
    """
    sc = build(name.removesuffix("-aperiodic"))
    T = sc.period(lam)
    if name == "case2-aperiodic":
        traj = integrate_group(aperiodic(sc.forcing(lam)), lam, 2 * T, ref_dir=sc.frame.x0_dir)
    else:
        traj = integrate_group(sc.forcing(lam), lam, max(2 * T, 5.0), ref_dir=sc.frame.x0_dir)
    return traj, T, sc.X0, sc.omega_bif


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
        ts += with_neighbours(seg.ts[0])
        if traj.W is not None:
            ts += with_neighbours(seg.ts[0] + traj.T)
    for seg in traj.segments:
        ts += seg.ts[1:-1]
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
    i = max(bisect.bisect_right([seg.ts[0] for seg in traj.segments], tau) - 1, 0)
    seg = traj.segments[i]
    return i, min(max(tau, seg.ts[0]), seg.ts[-1])


def composed_class(traj, t):
    """``class_at(t)`` composed from the public pieces: bch(bch(n W, prefix), Z(tau))."""
    n, tau = split(traj, t)
    i, s = locate(traj, tau)
    prefix = traj.prefixes[i]
    if n:
        prefix = bch(n * np.asarray(traj.W), prefix).vector
    return bch(prefix, traj.segments[i](s)[:3])


@pytest.mark.parametrize("name, lam", CHAIN_CASES)
def test_sampling_chain_is_the_composition_of_public_pieces(name, lam):
    traj, _, _, _ = chain_trajectory(name, lam)
    # the families sample past their period; all but the slow ones (|X0| = 2)
    # restart within it, and aperiodic case2 restarts over its horizon
    assert (traj.W is None) == (name == "case2-aperiodic")
    assert len(traj.segments) > 1 or name in ("case1", "example5")
    for t in probe_times(traj):
        cls = composed_class(traj, t)
        z = q_map(cls, traj.ref_dir)
        assert np.array_equal(traj.class_at(t).vector, cls.vector)
        assert np.array_equal(traj.eval_Z(t), z)
        assert np.array_equal(traj.eval_A(t), exp_rot(z))
    evals = [traj.class_at, traj.eval_Z, traj.eval_A]
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
    assert all(whole_record(r) for r in warm_traj._samples.values())
    assert all(type(t) is float for t in warm_traj._samples)
    for key in sorted(warm):
        cold = sampled_case(name, lam)[1][key]
        for t in times:
            first = cold(t).tobytes()
            assert warm[key](t).tobytes() == first, (key, t)
            assert cold(t).tobytes() == first and cold(np.float64(t)).tobytes() == first
        zero = sampled_case(name, lam)[1][key]
        assert zero(-0.0).tobytes() == zero(0.0).tobytes() == cold(-0.0).tobytes()


def whole_record(record) -> bool:
    """Whether a sample-time cache record is a tuple ``(v, a)`` of 3 and 9 floats."""
    return (
        type(record) is tuple and len(record) == 2 and [len(record[0]), len(record[1])] == [3, 9]
        and all(type(c) is float for c in (*record[0], *record[1]))
    )


@pytest.mark.parametrize("name, lam", [("case2", 0.1), ("example4", 1e-3), ("example5", 0.1)])
def test_samplers_that_read_no_A_cache_the_records_eval_A_makes(name, lam):
    # a fresh trajectory sampled only through eval_Z, log_Bf or primary_frequency
    # holds whole records, bitwise those that a later eval_A makes, batched or not
    sc = build(name)
    T = sc.period(lam)
    fresh = lambda t_end: integrate_group(sc.forcing(lam), lam, t_end, ref_dir=sc.frame.x0_dir)
    X = primary_frequency(fresh(2 * T), T)

    def records(traj, times):
        got = [traj._samples[float(t)] for t in times]
        assert all(whole_record(r) for r in got)
        return [np.array([*v, *a]).tobytes() for v, a in got]

    times = probe_times(fresh(2 * T))
    assert len(times) >= flow.BATCH_MIN
    batched = fresh(2 * T)
    batched.eval_A(np.array(times))
    want = records(batched, times)
    for sampler in (lambda traj: traj.eval_Z, lambda traj: periodic_part(traj, X, X, T).log_Bf):
        traj = fresh(2 * T)
        sample = sampler(traj)
        for t in times:
            sample(t)
        assert records(traj, times) == want
        for t in times:
            traj.eval_A(t)
        assert records(traj, times) == want
    # over one period no W is sampled at construction: T's record is primary_frequency's
    traj, later = fresh(T), fresh(T)
    assert traj._samples == later._samples == {}
    primary_frequency(traj, T)
    later.eval_A(T)
    assert records(traj, [T]) == records(later, [T])


def test_sample_cache_is_bounded_and_refills_with_the_same_values():
    traj, _ = sampled_case("case2", 0.1)
    times = np.linspace(0.0, traj.t_end, 2 * flow.CACHE_SIZE + 37).tolist()
    for _ in range(2):
        for t in times:
            z = traj.eval_Z(t)
            assert len(traj._samples) <= flow.CACHE_SIZE
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
    assert all(math.isfinite(t) and 0.0 <= t <= traj.t_end for t in traj._samples)


def test_a_time_that_is_not_one_real_number_raises_domain_error():
    traj, samplers = sampled_case("case2", 0.1)
    euler = integrate_euler(constant_signal(EZ), 0.0, 1.0, 0.5)
    samplers.update(euler_A=euler.eval_A, euler_angles=euler.eval_angles)
    for f in samplers.values():
        for t in ([0.1, 0.2], "a", None, 1j, 10**400):
            with pytest.raises(DomainError):
                f(t)
    for f in (traj.eval_A, euler.eval_A):
        with pytest.raises(DomainError, match="real numbers"):
            f(np.array(["a"] * flow.BATCH_MIN))


# ----------------------------------------------------------- batched sampling

def cold_each(traj, times):
    """eval_A at each time, one call per time, on an emptied sample-time cache."""
    traj._samples.clear()
    each = np.array([traj.eval_A(t) for t in times]).reshape(-1, 3, 3)
    traj._samples.clear()
    return each


@given(
    case=st.sampled_from(CHAIN_CASES),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
    spread=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_batched_eval_A_is_bitwise_the_per_time_samples(case, picks, spread):
    # the probe times hold t = 0, t_end, the multiples nT, the restart times
    # (and one period later) with their neighbours, and the inner step ends
    traj = chain_trajectory(*case)[0]
    pool = probe_times(traj)
    times = [pool[i % len(pool)] for i in picks] + [u * traj.t_end for u in spread]
    each = cold_each(traj, times)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "BATCH_MIN", 1)
        assert traj.eval_A(np.array(times)).tobytes() == each.tobytes()


@pytest.mark.parametrize("name, lam", CHAIN_CASES)
def test_batch_over_the_probe_times_fills_the_cache(name, lam):
    traj = chain_trajectory(name, lam)[0]
    times = probe_times(traj)
    assert len(times) >= flow.BATCH_MIN
    each = cold_each(traj, times)
    assert traj.eval_A(np.array(times)).tobytes() == each.tobytes()
    # later per-time samples at the same times are cache hits
    assert {float(t) for t in times} <= set(traj._samples)
    assert np.array([traj.eval_A(t) for t in times]).tobytes() == each.tobytes()


def counted_exp_entries(monkeypatch) -> list:
    """Record each argument of flow's ``_exp_entries``, the per-time Rodrigues step."""
    calls = []
    entries = flow._exp_entries
    monkeypatch.setattr(flow, "_exp_entries", lambda v: calls.append(v) or entries(v))
    return calls


@pytest.mark.parametrize("name, lam", [("case2", 0.1), ("example4", 1e-3), ("example5", 0.1)])
def test_a_batch_leaves_A_in_the_cache_for_per_time_samples(name, lam, monkeypatch):
    # after a batched eval_A or a tip track, eval_A at those times returns
    # the batch's rows bitwise from the cache, with no Rodrigues step; a
    # float and an np.float64 time hit one entry
    sc = build(name)
    T = sc.period(lam)
    fresh = lambda: integrate_group(sc.forcing(lam), lam, 2 * T, ref_dir=sc.frame.x0_dir)
    times = np.linspace(0.01, 2 * T, 2 * flow.BATCH_MIN)
    traj = fresh()
    stack = traj.eval_A(times)
    calls = counted_exp_entries(monkeypatch)
    for i, t in enumerate(times.tolist()):
        assert traj.eval_A(t).tobytes() == stack[i].tobytes()
        assert traj.eval_A(np.float64(t)).tobytes() == stack[i].tobytes()
    assert calls == [] and set(times.tolist()) <= set(traj._samples)
    # the tip track's one batched call fills it the same way
    traj = fresh()
    tip_trajectory(traj, sc.tip_x0, sc.r, times, period=T)
    calls.clear()  # the track's A(0), an identity product, is redone alone inside the batch
    assert np.array([traj.eval_A(t) for t in times.tolist()]).tobytes() == stack.tobytes()
    assert calls == []
    # a cold per-time sample runs Rodrigues once, then hits; the count starts
    # after construction, which caches the whole record of W's time T
    traj = fresh()
    calls.clear()
    t = float(times[5])
    assert traj.eval_A(t).tobytes() == traj.eval_A(np.float64(t)).tobytes() == stack[5].tobytes()
    assert len(calls) == 1


def test_short_arrays_are_sampled_time_by_time(monkeypatch):
    traj = chain_trajectory("case2", 0.1)[0]
    batches = []
    batch = flow.GroupTrajectory._A_batch
    monkeypatch.setattr(
        flow.GroupTrajectory, "_A_batch", lambda s, ts: batches.append(ts) or batch(s, ts)
    )
    for m in (0, 1, flow.BATCH_MIN - 1, flow.BATCH_MIN):
        times = np.linspace(0.0, traj.t_end, m)
        assert traj.eval_A(times).tobytes() == cold_each(traj, times.tolist()).tobytes()
    assert [len(ts) for ts in batches] == [flow.BATCH_MIN]


def test_batch_leaves_identity_and_half_turn_products_to_the_per_time_chain(monkeypatch):
    # rotation at rate 2 about z: A(0) is the identity product and A(pi/2) a
    # half turn whose vector lies on the equator of ref_dir = e_x
    traj = integrate_group(constant_signal(X0), 0.0, 3.0, ref_dir=EX)
    times = [0.0, math.pi / 2, *np.linspace(0.05, 3.0, flow.BATCH_MIN).tolist()]
    each = cold_each(traj, times)
    alone = []
    entries = flow.GroupTrajectory._A_entries
    monkeypatch.setattr(
        flow.GroupTrajectory, "_A_entries", lambda s, t: alone.append(t) or entries(s, t)
    )
    assert traj.eval_A(np.array(times)).tobytes() == each.tobytes()
    assert alone == [0.0, math.pi / 2]


def test_batch_cache_stays_bounded(monkeypatch):
    # a batch longer than the cache empties it when full, as per-time samples
    # do; the times it cached last hold A, so per-time samples there are hits
    traj = chain_trajectory("example4", 0.1)[0]
    times = np.linspace(0.0, traj.t_end, 2 * flow.CACHE_SIZE + 37)
    each = cold_each(traj, times.tolist())
    assert traj.eval_A(times).tobytes() == each.tobytes()
    held = len(traj._samples)
    assert 0 < held <= flow.CACHE_SIZE and set(traj._samples) == set(times[-held:].tolist())
    calls = counted_exp_entries(monkeypatch)
    assert np.array([traj.eval_A(t) for t in times[-held:].tolist()]).tobytes() == each[-held:].tobytes()
    assert calls == [] and len(traj._samples) == held
    traj._samples.clear()


def test_batch_errors_are_the_per_time_errors():
    traj = chain_trajectory("case3", 1e-3)[0]
    good = np.linspace(0.0, traj.t_end, flow.BATCH_MIN).tolist()
    for bad in (traj.t_end + 2e-9, -2e-9, math.nan, math.inf):
        times = good[:7] + [bad] + good[7:] + [-1.0]
        with pytest.raises(DomainError) as per_time:
            cold_each(traj, times)
        with pytest.raises(DomainError) as batched:
            traj.eval_A(np.array(times))
        assert str(batched.value) == str(per_time.value)
    with pytest.raises(DomainError, match="1-D"):
        traj.eval_A(np.zeros((2, flow.BATCH_MIN)))
    # a dense state that is not finite: the same error from either chain
    traj = integrate_group(constant_signal(X0), 0.0, 1.0)
    times = np.linspace(0.0, 1.0, flow.BATCH_MIN)
    for step in traj._steps:
        step.rows = ((math.inf,) * 8, *step.dense_rows()[1:])
    for sample in (lambda: cold_each(traj, times.tolist()), lambda: traj.eval_A(times)):
        with pytest.raises(DomainError, match="finite 3-vector"):
            sample()


def test_batch_builds_the_dense_rows_of_the_steps_it_samples_only():
    # the batch locates its times in the one step table that the per-time
    # sampler bisects; a step no time lands in keeps its dense stages deferred
    sc, lam = build("case2"), 0.01
    fresh = lambda: integrate_group(sc.forcing(lam), lam, 2 * sc.period(lam), ref_dir=sc.frame.x0_dir)
    traj = fresh()
    assert not hasattr(traj, "_arrays") and not hasattr(traj, "_t_extend")
    built = {j for j, step in enumerate(traj._steps) if step.rows is not None}
    picked = sorted({1, len(traj._steps) // 2, len(traj._steps) - 2} - built)
    per_step = -(-flow.BATCH_MIN // len(picked))
    times = [
        traj._steps[j].t0 + frac * traj._steps[j].h
        for j in picked for frac in np.linspace(0.1, 0.9, per_step).tolist()
    ]
    assert sorted({bisect.bisect_left(traj._ends, t) for t in times}) == picked
    each = cold_each(fresh(), times)
    assert traj.eval_A(np.array(times)).tobytes() == each.tobytes()
    assert {j for j, step in enumerate(traj._steps) if step.rows is not None} == built | {*picked}
    assert len(built) + len(picked) < len(traj._steps)


def test_horizons_past_the_exact_period_count_are_refused():
    # the batch keys each time by n * m + segment (n periods, m segments per
    # period) in int64: past t_end / T = 2**53 / m it would lose exactness,
    # and at 1e19 it overflowed, so batched samples differed from the
    # per-time ones, and those raised ValueError (1e300) or OverflowError (1e308)
    sc, lam = build("case2"), 0.01
    T = sc.period(lam)
    m = len(integrate_group(sc.forcing(lam), lam, 2.0 * T).segments)
    traj = integrate_group(sc.forcing(lam), lam, 0.99 * 2.0**53 / m * T)
    times = np.linspace(0.5 * traj.t_end, traj.t_end, flow.BATCH_MIN)
    each = cold_each(traj, times.tolist())
    assert traj.eval_A(times).tobytes() == each.tobytes()
    for t_end in (1.01 * 2.0**53 / m * T, 1e19, 1e300, 1e308):
        with pytest.raises(DomainError, match="2\\*\\*53"):
            integrate_group(sc.forcing(lam), lam, t_end)


def test_euler_eval_A_takes_an_array_of_times():
    euler = integrate_euler(constant_signal(X0 + EX), 0.0, 2.0, 0.7)
    times = np.linspace(0.0, 2.0, 9)
    assert euler.eval_A(times).tobytes() == np.array([euler.eval_A(t) for t in times]).tobytes()
    with pytest.raises(DomainError, match="1-D"):
        euler.eval_A(times.reshape(3, 3))


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
    with pytest.raises(DomainError):
        integrate_euler(sig, 0.0, 0.0, 0.5)


def test_euler_gimbal_lock_in_flight():
    # F = -e_x from theta0 = 0.5 keeps phi = 0 and gives theta = 0.5 - t,
    # which reaches the pole at t = 0.5
    sig = ForcingSignal(eval=lambda t, lam: [-1.0, 0.0, 0.0], period=None)
    with pytest.raises(GimbalLockError, match="at t=0.5"):
        integrate_euler(sig, 0.0, 0.5, 0.5)


def test_euler_gimbal_lock_past_the_pole():
    # over [0, 1] no stage lands within 1e-6 of the pole at t = 0.5, but the
    # stages past it have sin(theta) < 0 and raise; the chart never returns
    # theta = 0.5 - t < 0
    sig = ForcingSignal(eval=lambda t, lam: [-1.0, 0.0, 0.0], period=None)
    with pytest.raises(GimbalLockError, match=r"at t=0\.50"):
        integrate_euler(sig, 0.0, 1.0, 0.5)


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
    euler = integrate_euler(sc.forcing(lam), lam, T, 0.5)
    for t in np.linspace(0.0, T, 9):
        assert np.linalg.norm(euler.eval_A(t) - group.eval_A(t)) < 1e-6


def test_euler_eval_outside_range_raises():
    tr = integrate_euler(constant_signal(EZ), 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        tr.eval_angles(2.0)
