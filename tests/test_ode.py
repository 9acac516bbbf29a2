"""DOP853 and Brent against SciPy's implementations, and a numpy-only runtime.

SciPy is a test-only dependency: it is the reference these ports must agree
with, never imported by the package itself.
"""
import math
import os
import subprocess
import sys
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

import rotwave
from rotwave import ForcingSignal, SingularityError, integrate_group, ode
from rotwave.scenarios import build
from rotwave.so3 import _dexpinv_kernels, _norm3

FAMILIES = ("case1", "case2", "case3", "example4", "example5")
RTOL, ATOL, CUTOFF = 1e-10, 1e-12, math.pi - 0.1


def _first_segment_problem(family, lam):
    sig = build(family).forcing(lam)
    _, dexpinv_apply = _dexpinv_kernels()

    def rhs(t, z):
        return dexpinv_apply(z, np.asarray(sig.eval(t, lam)).tolist())

    def boundary(t, z):
        return _norm3(z[:3]) - CUTOFF

    boundary.terminal = True
    boundary.direction = 1
    return rhs, boundary


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1e-1])
@pytest.mark.parametrize("family", FAMILIES)
def test_first_segment_matches_scipy_dop853(family, lam):
    rhs, boundary = _first_segment_problem(family, lam)
    ours = ode.solve_ivp(rhs, (0.0, 10.0), (0.0, 0.0, 0.0), RTOL, ATOL, event=boundary)
    ref = scipy_solve_ivp(
        lambda t, z: np.array(rhs(t, z.tolist())), (0.0, 10.0), np.zeros(3),
        method="DOP853", dense_output=True, events=[boundary], rtol=RTOL, atol=ATOL,
    )
    assert ours.status == ref.status == 1
    t_event = ref.t_events[0][0]
    assert abs(ours.t[-1] - t_event) < 1e-9
    assert abs(len(ours.t) - len(ref.t)) <= 1
    for t in np.linspace(0.0, t_event, 200):
        assert np.max(np.abs(np.array(ours.sol(t)) - ref.sol(t))) < 1e-9


def test_step_size_underflow_matches_scipy():
    # y' = y^2 from y(0) = 1 blows up at t = 1; both stop there, failing
    ours = ode.solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], RTOL, ATOL)
    ref = scipy_solve_ivp(
        lambda t, y: y * y, (0.0, 2.0), [1.0], method="DOP853", dense_output=True,
        rtol=RTOL, atol=ATOL,
    )
    assert ours.status == ref.status == -1
    assert ours.message == ref.message
    assert abs(ours.t[-1] - ref.t[-1]) < 1e-9
    assert abs(len(ours.t) - len(ref.t)) <= 1


@pytest.mark.parametrize("atol", [1e-200, 1e-300])
def test_overflowing_error_norm_fails_the_step_as_in_scipy(atol):
    # (err / scale)**2 overflows the float range: the step is rejected as
    # with an infinite error, and the step size underflows as in SciPy
    ours = ode.solve_ivp(lambda t, y: [1.0 + y[0]], (0.0, 1.0), [0.0], 1e-10, atol)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = scipy_solve_ivp(
            lambda t, y: 1.0 + y, (0.0, 1.0), [0.0], method="DOP853", rtol=1e-10, atol=atol
        )
    assert ours.status == ref.status == -1
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev == 14
    assert ours.t == [0.0] and ref.t.tolist() == [0.0]


# ------------------------------------------ the generated step kernel, bitwise

def _combine(K, row):
    """``sum_j coef_j K[j]`` componentwise over a sparse (stage, coef) row."""
    idx, coef = zip(*row)
    return [sum(map(mul, coef, col)) for col in zip(*[K[j] for j in idx])]


def _fill_stages(f, t, y, h, K, first, nodes, rows):
    for s, (c, row) in enumerate(zip(nodes, rows), start=first):
        dy = _combine(K, row)
        K[s] = f(t + c * h, [v + d * h for v, d in zip(y, dy)])


def _reference_step(f, t, y, fy, h, rtol, atol):
    """Stages 0-12 and the error norm of one DOP853 step as the tableau loop over a
    stage list K, in the step kernel's convention; K stands for the kernel's stages."""
    K = [None] * 16
    K[0] = fy
    _fill_stages(f, t, y, h, K, 1, ode._C, ode._A)
    y_new = [v + h * d for v, d in zip(y, _combine(K, ode._B))]
    f_new = K[12] = f(t + h, y_new)
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
    n5 = sum((e / s) ** 2 for e, s in zip(_combine(K, ode._E5), scale))
    n3 = sum((e / s) ** 2 for e, s in zip(_combine(K, ode._E3), scale))
    err = 0.0 if n5 == 0.0 and n3 == 0.0 else abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * len(y))
    return y_new, f_new, err, K


def _reference_dense(f, t, y, y_new, h, K):
    """Stages 13-15 and the Horner rows of that step as the tableau loop, in the
    dense kernel's convention."""
    _fill_stages(f, t, y, h, K, 13, ode._C_EXTRA, ode._A_EXTRA)
    fy, f_new = K[0], K[12]
    delta = [b - a for a, b in zip(y, y_new)]
    F = [
        delta,
        [h * a - d for a, d in zip(fy, delta)],
        [2.0 * d - h * (b + a) for d, a, b in zip(delta, fy, f_new)],
        *([h * v for v in _combine(K, row)] for row in ode._D),
    ]
    return tuple(zip(y, *F))


def _reporting(kernel):
    """``kernel`` on a counting right-hand side, reporting the calls it made as the generated
    kernels do: as the ``rhs_calls`` of a SingularityError that ends it."""
    def run(f, *args):
        calls = 0

        def counted(t, y):
            nonlocal calls
            calls += 1
            return f(t, y)

        try:
            return kernel(counted, *args)
        except SingularityError as exc:
            exc.rhs_calls = calls
            raise

    return run


def _with_reference_step(monkeypatch, run):
    """``run()`` once with the generated kernels and once with the tableau loop."""
    ours = run()
    with monkeypatch.context() as m:
        m.setattr(ode, "_step_kernel", lambda n: (_reporting(_reference_step), _reporting(_reference_dense)))
        ref = run()
    return ours, ref


def _assert_same_solution(ours, ref, t_end):
    assert ours.ts == ref.ts
    for t in np.linspace(ours.ts[0], t_end, 1000).tolist():
        assert ours(t) == ref(t)


def test_kernel_equals_tableau_loop_on_the_underflow_case(monkeypatch):
    ours, ref = _with_reference_step(
        monkeypatch,
        lambda: ode.solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], RTOL, ATOL),
    )
    assert ref.status == -1
    assert (ours.status, ours.nfev, ours.t) == (ref.status, ref.nfev, ref.t)
    _assert_same_solution(ours.sol, ref.sol, ref.t[-1])


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_equals_tableau_loop_on_a_first_segment(family, monkeypatch):
    rhs, boundary = _first_segment_problem(family, 0.05)
    ours, ref = _with_reference_step(
        monkeypatch,
        lambda: ode.solve_ivp(rhs, (0.0, 10.0), (0.0, 0.0, 0.0), RTOL, ATOL, event=boundary),
    )
    assert ref.status == 1
    assert (ours.status, ours.nfev, ours.t) == (ref.status, ref.nfev, ref.t)
    _assert_same_solution(ours.sol, ref.sol, ref.t[-1])


def test_kernel_equals_tableau_loop_on_a_five_component_state(monkeypatch):
    # Z driven by X = (u, 0, 2), with (u, v) on a Stuart-Landau orbit of radius
    # sqrt(lam): a state past the three components the program generates
    omega, lam = 20.0, 0.05
    _, dexpinv_apply = _dexpinv_kernels()

    def rhs(t, y):
        z0, z1, z2, u, v = y
        shrink = lam - (u * u + v * v)
        dz = dexpinv_apply((z0, z1, z2), (u, 0.0, 2.0))
        return [*dz, shrink * u - omega * v, omega * u + shrink * v]

    ours, ref = _with_reference_step(
        monkeypatch,
        lambda: ode.solve_ivp(
            rhs, (0.0, 10.0), [0.0, 0.0, 0.0, math.sqrt(lam), 0.0], RTOL, ATOL,
            event=lambda t, y: _norm3(y[:3]) - CUTOFF,
        ),
    )
    assert ref.status == 1 and len(ref.sol(0.5)) == 5
    assert (ours.status, ours.nfev, ours.t) == (ref.status, ref.nfev, ref.t)
    _assert_same_solution(ours.sol, ref.sol, ref.t[-1])


def test_singular_stage_rejects_the_step_and_halves_it(monkeypatch):
    # the fifth call (stage 3 of the first step) raises once; the step is
    # retried at half its size, and the tableau loop does the same
    def run():
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == 5:
                raise SingularityError("stage at the singularity")
            return [math.cos(t) * y[1], -y[0]]

        return ode.solve_ivp(rhs, (0.0, 5.0), [1.0, 0.5], RTOL, ATOL)

    plain = ode.solve_ivp(lambda t, y: [math.cos(t) * y[1], -y[0]], (0.0, 5.0), [1.0, 0.5], RTOL, ATOL)
    ours, ref = _with_reference_step(monkeypatch, run)
    assert ours.t[1] == plain.t[1] * 0.5
    assert ours.nfev == ref.nfev and ours.nfev > plain.nfev
    assert ours.singular_rejections == ref.singular_rejections == 1
    assert plain.singular_rejections == 0
    _assert_same_solution(ours.sol, ref.sol, 5.0)


def _event_at_2_5(t, y):
    return t - 2.5


@pytest.mark.parametrize("event", [_event_at_2_5, None], ids=["event", "end"])
def test_singular_dense_stage_of_the_last_step_rejects_the_step(event, monkeypatch):
    # the last step (the event fires in it, or it reaches the end of the
    # range) builds its dense output in the solve, so its stages 13-15 are
    # the solve's last three calls; stage 13 raises once, and the step is
    # retried at half its size, as a singular stage 1-12 would be
    def run(raise_at):
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == raise_at:
                raise SingularityError("dense stage at the singularity")
            return [math.cos(t) * y[1], -y[0]]

        return ode.solve_ivp(rhs, (0.0, 5.0), [1.0, 0.5], RTOL, ATOL, event=event)

    plain = run(None)
    assert plain.singular_rejections == 0
    last = len(plain.t) - 2  # index of the last step
    ours, ref = _with_reference_step(monkeypatch, lambda: run(plain.nfev - 2))
    assert (ours.status, ours.nfev, ours.t) == (ref.status, ref.nfev, ref.t)
    assert ours.singular_rejections == ref.singular_rejections == 1
    assert ours.t[: last + 1] == plain.t[: last + 1]
    t, h = plain.t[last], plain.sol.interpolants[last].h
    assert ours.sol.interpolants[last].h == (t + 0.5 * h) - t
    if event is None:
        assert ours.status == plain.status == 0 and ours.t[-1] == 5.0
    else:
        assert ours.status == plain.status == 1 and abs(ours.t[-1] - 2.5) < 1e-12
    _assert_same_solution(ours.sol, ref.sol, ours.t[-1])


# ------------------------------------------------------------- counting nfev

def counted_solve(raise_at=(), event=None, first_step=None):
    """A two-component solve whose right-hand side records each call and raises
    SingularityError at the call numbers in ``raise_at``: the solve and the calls."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) in raise_at:
            raise SingularityError("counted call at the singularity")
        return [math.cos(t) * y[1], -y[0]]

    return ode.solve_ivp(rhs, (0.0, 5.0), [1.0, 0.5], RTOL, ATOL, event=event, first_step=first_step), calls


@pytest.mark.parametrize("first_step", [None, 0.01])
def test_nfev_is_every_call_of_a_plain_solve(first_step):
    # the start value, the initial-step probe, 12 per trial step and 3 for the last step's dense stages
    sol, calls = counted_solve(first_step=first_step)
    probes = 1 if first_step is None else 0
    assert sol.nfev == len(calls) and (sol.nfev - 1 - probes - 3) % 12 == 0


def test_nfev_counts_a_halved_initial_step_probe():
    plain, _ = counted_solve()
    sol, calls = counted_solve(raise_at={2})
    assert sol.nfev == len(calls) == plain.nfev + 1 and sol.singular_rejections == 0


@pytest.mark.parametrize("stage", [1, 6, 12])
def test_nfev_counts_a_singular_trial_step_up_to_the_call_that_raised(stage):
    # calls 1 and 2 are the start value and the probe; call 2 + s is stage s of the first trial step
    sol, calls = counted_solve(raise_at={2 + stage})
    assert sol.singular_rejections == 1 and sol.nfev == len(calls)
    h = sol.sol.interpolants[0].h
    assert calls[2 + stage] == 0.0 + ode._C[0] * h  # the halved step starts over at stage 1


@pytest.mark.parametrize("stage", [13, 14, 15])
@pytest.mark.parametrize("event", [_event_at_2_5, None], ids=["event", "end"])
def test_nfev_counts_the_last_steps_dense_stages_up_to_a_singular_one(event, stage):
    plain, _ = counted_solve(event=event)
    sol, calls = counted_solve(raise_at={plain.nfev - 15 + stage}, event=event)
    assert sol.singular_rejections == 1 and sol.nfev == len(calls)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_every_generated_kernel_reports_the_calls_of_a_singular_run(n):
    # the step and the dense kernel of each state size the suite generates: stage 6 of the
    # first trial step raises in one solve, stage 14 of the last step in another
    def solve(raise_at):
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == raise_at:
                raise SingularityError("counted call at the singularity")
            return [math.cos(t) - v for v in y]

        return ode.solve_ivp(rhs, (0.0, 3.0), [1.0] * n, RTOL, ATOL), calls

    plain, _ = solve(None)
    for raise_at in (2 + 6, plain.nfev - 1):
        sol, calls = solve(raise_at)
        assert sol.singular_rejections == 1 and sol.nfev == len(calls)


def test_nfev_leaves_out_deferred_dense_stages():
    sol, calls = counted_solve()
    made = len(calls)
    assert sol.nfev == made and len(sol.t) > 3
    sol.sol(0.5 * (sol.t[1] + sol.t[2]))  # inside the second step, whose dense stages waited
    assert len(calls) == made + 3 and sol.nfev == made


def test_an_event_that_raises_reaches_the_caller():
    # only the right-hand side's SingularityError rejects a step
    def event(t, y):
        if t > 1.0:
            raise SingularityError("event past t = 1")
        return -1.0

    with pytest.raises(SingularityError, match="event past"):
        ode.solve_ivp(lambda t, y: [-y[0]], (0.0, 5.0), [1.0], RTOL, ATOL, event=event)


@pytest.mark.parametrize("z0", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
def test_a_sample_at_a_step_start_needs_no_dense_stages(z0):
    # at x = 0 the polynomial is bitwise the step's start state, except for a
    # -0.0 component, whose sign the rest of the Horner scheme sets (here to
    # +0.0), so a start with one builds the rows
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [-y[1], y[0], -0.0 * y[0]]

    sol = ode.solve_ivp(rhs, (0.0, 5.0), [1.0, 0.0, z0], RTOL, ATOL).sol
    steps = sol.interpolants
    solved = len(calls)
    starts = [step(t) for step, t in zip(steps, sol.ts)]
    built = [step.rows is not None for step in steps]
    assert built[0] is (math.copysign(1.0, z0) < 0.0)
    assert built[-1] and len(calls) - solved == 3 * (sum(built) - 1)
    for step, got in zip(steps, starts):
        want = [ode._horner(0.0, 1.0, row) for row in step.dense_rows()]
        assert [v.hex() for v in got] == [v.hex() for v in want]
    assert starts[0][2].hex() == "0x0.0p+0"


def _counted_forcing(family, lam):
    """The family's forcing at ``lam`` with a log of its calls, and its period."""
    sc = build(family)
    sig = sc.forcing(lam)
    calls = []

    def xg(t, lam_):
        calls.append(t)
        return sig.eval(t, lam_)

    return ForcingSignal(xg, sig.period), sc.period(lam), calls


@pytest.mark.parametrize("family, events", [("case1", 0), ("case2", 2)])
def test_unsampled_steps_skip_the_dense_stages(family, events):
    # one period: only the last step of each segment (an event step per
    # restart, then the step that reaches T) builds its dense output in the
    # solve; sampling every step then costs 3 right-hand sides per remaining
    # step, once
    sig, T, calls = _counted_forcing(family, 0.05)
    traj = integrate_group(sig, 0.05, T)
    steps = traj._steps
    assert len(traj.segments) == events + 1
    assert [step.rows is not None for step in steps].count(True) == events + 1
    assert all(seg.interpolants[-1].rows is not None for seg in traj.segments)
    unsampled = len(calls)
    for step in steps:
        step(step.t0 + 0.5 * step.h)
    assert len(calls) - unsampled == 3 * (len(steps) - events - 1)
    assert all(step.rows is not None and step.pending is None for step in steps)
    for step in steps:
        step(step.t0 + 0.25 * step.h)
    assert len(calls) - unsampled == 3 * (len(steps) - events - 1)


def test_deferred_dense_output_is_the_eager_one_after_another_lambda():
    # the forcing keeps the constants of the last lambda it saw; integrating
    # another lambda in between makes every deferred stage recompute them
    sig, T, _ = _counted_forcing("case1", 0.05)
    eager = integrate_group(sig, 0.05, T)
    rows = [step.dense_rows() for step in eager._steps]
    lazy = integrate_group(sig, 0.05, T)
    integrate_group(sig, 0.1, T)
    assert any(step.rows is None for step in lazy._steps)
    times = np.linspace(0.0, T, 1000).tolist()
    assert [lazy.eval_A(t).tobytes() for t in times] == [eager.eval_A(t).tobytes() for t in times]
    assert [step.dense_rows() for step in lazy._steps] == rows


BRENT_CASES = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.tanh(40.0 * (x - 0.3)) + 1e-3, -1.0, 2.0),
]


@pytest.mark.parametrize("xtol", [1e-6, 1e-13, 4 * ode.EPS])
@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brentq_matches_scipy(case, xtol):
    f, a, b = BRENT_CASES[case]
    assert abs(ode.brentq(f, a, b, xtol) - scipy_brentq(f, a, b, xtol=xtol)) <= xtol


def test_brentq_reuses_known_endpoint_values():
    f, a, b = BRENT_CASES[0]
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    root = ode.brentq(counted, a, b, 1e-13)
    n = len(seen)
    seen.clear()
    assert ode.brentq(counted, a, b, 1e-13, fa=f(a), fb=f(b)) == root
    assert len(seen) == n - 2


def test_brentq_rejects_a_one_signed_bracket():
    with pytest.raises(ValueError):
        ode.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_brentq_argument_and_value_checks():
    with pytest.raises(ValueError, match="xtol"):
        ode.brentq(math.sin, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="NaN"):
        ode.brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        ode.brentq(lambda x: -1.0, -1.0, 1.0, 1e-12, fb=math.nan)


def test_brentq_returns_an_exact_zero_end():
    assert ode.brentq(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
    assert ode.brentq(lambda x: x, -1.0, 0.0, 1e-12) == 0.0


def test_brentq_gives_up_after_its_iteration_limit():
    # a sign step at 0 in a bracket of width 2e300: Brent falls back to
    # bisection, which needs about 1000 halvings to reach the tolerance
    with pytest.raises(RuntimeError, match="Failed to converge"):
        ode.brentq(lambda x: -1.0 if x < 0.0 else 1.0, -1e300, 1e300, 1e-300)


def test_t_span_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        ode.solve_ivp(lambda t, y: [1.0], (1.0, 1.0), [0.0], RTOL, ATOL)


def test_zero_derivative_takes_the_fallback_initial_step():
    # y' = 0: both derivative norms vanish, and the heuristic falls back to
    # max(1e-6, 1e-3 h0) = 1e-6 (h0 = 1e-6), then grows the step tenfold
    # per accepted step
    sol = ode.solve_ivp(lambda t, y: [0.0], (0.0, 1.0), [1.0], RTOL, ATOL)
    assert sol.status == 0 and sol.t[:3] == [0.0, 1e-6, 1.1e-5]
    assert sol.sol(0.5) == [1.0]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_every_generated_step_kernel_takes_a_zero_and_an_overflowing_error_norm(n):
    # the kernels differ in the state size alone: n copies of the one-component
    # problems above fail the step on an overflowing norm and take the fallback
    # initial step on a zero one, with the same steps and evaluations
    over = ode.solve_ivp(lambda t, y: [1.0 + v for v in y], (0.0, 1.0), [0.0] * n, 1e-10, 1e-300)
    assert (over.status, over.nfev, over.t) == (-1, 14, [0.0])
    zero = ode.solve_ivp(lambda t, y: [0.0] * n, (0.0, 1.0), [1.0] * n, RTOL, ATOL)
    assert zero.status == 0 and zero.t[:3] == [0.0, 1e-6, 1.1e-5]
    assert zero.sol(0.5) == [1.0] * n


def test_singular_initial_probe_is_retried_at_half_the_step():
    # the heuristic's probe at t0 + h0 raises; it is retried at half the
    # step, and the solve matches the one whose probe did not raise
    def run(raise_first_probe):
        calls = []

        def rhs(t, y):
            calls.append(t)
            if raise_first_probe and len(calls) == 2:
                raise SingularityError("probe at the singularity")
            return [math.cos(t) * y[1], -y[0]]

        return ode.solve_ivp(rhs, (0.0, 5.0), [1.0, 0.5], RTOL, ATOL), calls

    (plain, plain_calls), (retried, calls) = run(False), run(True)
    assert calls[2] == 0.5 * plain_calls[1]
    assert retried.status == 0 and retried.nfev == plain.nfev + 1


def test_initial_probe_that_always_raises_ends_in_step_underflow():
    # halving stops below ten ulps of t0, and the stepper reports status -1
    def rhs(t, y):
        if t > 0.0:
            raise SingularityError("singular for every t > 0")
        return [1.0]

    sol = ode.solve_ivp(rhs, (0.0, 1.0), [0.0], RTOL, ATOL)
    assert sol.status == -1 and sol.t == [0.0]


def test_runtime_does_not_import_scipy():
    src = str(Path(rotwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rotwave, rotwave.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
