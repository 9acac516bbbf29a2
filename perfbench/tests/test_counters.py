"""Self-checks of the benchmark's layer counters and of its seeded inputs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import rotwave  # noqa: E402
import rotwave.cli  # noqa: E402,F401
import jobs  # noqa: E402
import tracer  # noqa: E402

SEED = 1


def _pick(kind, families):
    """The first job of the seed's sweep round for each family (of one kind)."""
    picked = {}
    for job in jobs.make_jobs("sweep", SEED):
        if job.kind == kind and job.family in families:
            picked.setdefault(job.family, job)
    return [picked[f] for f in families]


def _traced(job_list):
    runner = jobs.Runner()
    tr = tracer.Tracer()
    outs = []
    for job in job_list:
        with tr.job(job.id, job.kind):
            outs.append(runner.run(job))
    return tr.take(), outs


@pytest.fixture(scope="module")
def group_run():
    # case2 restarts many times, example5 only a few
    return _traced(_pick("group", ("case2", "example5")))


@pytest.fixture(scope="module")
def root_run():
    return _traced(_pick("root", ("example4",)))


def calls(snap, name):
    return snap["spans"].get(name, (0, 0.0, 0.0))[0]


def test_segments_equal_trajectory_segments(group_run):
    snap, outs = group_run
    assert snap["counts"]["segments"] == sum(len(out["traj"].segments) for out in outs)
    assert snap["counts"]["segments"] > len(outs)


def test_rhs_evals_equal_forcing_calls(group_run, root_run):
    for snap, _ in (group_run, root_run):
        assert snap["counts"]["rhs_evals"] > 0
        assert snap["counts"]["rhs_evals"] == calls(snap, "scenarios.forcing")
        # an explicit Runge-Kutta step costs at least its stages
        assert snap["counts"]["rhs_evals"] >= 12 * snap["counts"]["accepted_steps"]


def test_no_step_cap_retries_on_the_seed(group_run, root_run):
    for snap, _ in (group_run, root_run):
        assert calls(snap, "flow.solve_ivp") == snap["counts"]["segments"]


def test_drift_evals_count_the_root_finds_integrations(root_run):
    snap, outs = root_run
    assert calls(snap, "hopf.find_orthogonal_branch") == len(outs)
    assert snap["counts"]["drift_evals"] == calls(snap, "flow.integrate_group") > 2


def test_counts_repeat_across_traced_runs(group_run):
    again, _ = _traced(_pick("group", ("case2", "example5")))
    first, _ = group_run
    assert again["counts"] == first["counts"]
    assert {k: v[0] for k, v in again["spans"].items()} == {
        k: v[0] for k, v in first["spans"].items()
    }


def test_tracer_restores_the_program():
    flow = sys.modules["rotwave.flow"]
    before = (flow.solve_ivp, flow.GroupTrajectory.eval_A, rotwave.Scenario.forcing)
    tr = tracer.Tracer()
    with tr.job(0, "probe"):
        assert flow.solve_ivp is not before[0]
    assert (flow.solve_ivp, flow.GroupTrajectory.eval_A, rotwave.Scenario.forcing) == before


@pytest.mark.parametrize("workload", ["sweep", "sample", "cli"])
def test_inputs_are_a_function_of_the_seed(workload):
    assert jobs.make_jobs(workload, SEED) == jobs.make_jobs(workload, SEED)
    assert jobs.make_jobs(workload, SEED) != jobs.make_jobs(workload, SEED + 1)
