"""Start-up: what a fresh interpreter builds and loads for the CLI.

The interpreter runs with ``-S``, so no ``.pth`` file of site-packages loads
modules of its own, and only rotwave's imports decide what ``sys.modules``
holds. ``import rotwave`` runs no submodule, and each subcommand runs only the
modules it calls into. A lazy module that has not run is an instance of a
subclass of ``types.ModuleType`` whose first attribute read runs it, so these
checks tell the two apart by ``type(m) is types.ModuleType`` and read no
attribute of a module (``isinstance`` reads ``__class__``). A run that
integrates nothing runs no ``flow``: besides ``cli``, ``errors``, ``so3`` and
``_numpy``, ``bch`` runs ``bch``, and ``--dump-config`` and a configuration
error at most ``scenarios`` (``IntegratorConfig`` lives in ``so3``, and
``scenarios`` imports each ``flow`` name where it calls it). Generating a
dataclass execs and compiles its methods; ``ForcingSignal`` alone stays one, as
code outside the package passes it to ``dataclasses.replace``, and a run
without ``flow`` generates none and imports no ``dataclasses``. ``bch``
reads and writes no JSON and builds no path, and generates no kernel: the
straight-line kernels of the
integrator, the forcings and the closed forms, the array coefficients of the
batched sampler and the periodic-part sampler, compile at their first use, so
a process that neither integrates nor samples spends no compile time on them.
No README subcommand calls ``periodic_part``, so none compiles its sampler.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotwave

SRC = str(Path(rotwave.__file__).resolve().parents[1])

#: the rotwave modules that have run, by their names in ``sys.modules``
RAN = """[
    name for name, m in sys.modules.items() if name.startswith("rotwave") and type(m) is types.ModuleType
]"""

#: ``import rotwave``, then each rotwave module in ``sys.modules``, those that have run, and those
#: that have run once ``rotwave.exp_rot`` is read
IMPORT = f"""if True:
    import sys, types
    import rotwave
    print(sorted(name for name in sys.modules if name.startswith("rotwave")))
    print(sorted({RAN}))
    rotwave.exp_rot
    print(sorted({RAN}))
"""

#: the dataclasses generated and the modules loaded by the subcommand in the arguments
CODE = f"""if True:
    import contextlib, io, sys, types
    import rotwave.cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = rotwave.cli.main(sys.argv[1:])
    print(sorted({{
        f"{{obj.__module__}}.{{obj.__qualname__}}"
        for mod in [sys.modules[name] for name in {RAN}]
        for obj in vars(mod).values() if issubclass(type(obj), type) and hasattr(obj, "__dataclass_fields__")
    }}))
    print(rc, [name for name in ("dataclasses", "json", "typing", "pathlib") if name in sys.modules])
    print(sorted({RAN}))
"""


#: the caches of the kernel generators after ``bch``
KERNELS = """if True:
    import contextlib, io
    import rotwave.cli
    from rotwave import flow, hopf, ode, scenarios, so3
    with contextlib.redirect_stdout(io.StringIO()):
        rc = rotwave.cli.main(["bch", "0", "0", "1", "1", "0", "0", "--check"])
    caches = (ode._step_kernel, flow._shape_kernel, so3._dexpinv_kernels, scenarios._closed_kernel,
              so3._exp_coeffs_arrays, hopf._periodic_sampler)
    print(rc, [c.cache_info().currsize for c in caches])
"""

#: the README's subcommands, run one after another in one process, and the periodic-part
#: sampler's cache after each; the first argument is a directory for simulate's files
README_RUNS = """if True:
    import contextlib, io, sys
    import rotwave.cli
    from rotwave import hopf
    out = sys.argv[1]
    for argv in (["simulate", "--scenario", "case1", "--lambda", "0.05", "--horizon", "5", "--out", out],
                 ["frequency", "--scenario", "case2", "--lambda-grid", "0.05,0.1"],
                 ["drift", "--scenario", "example4", "--lambda", "0.01"],
                 ["bch", "0", "0", "1.5707963267948966", "1.5707963267948966", "0", "0", "--check"],
                 ["verify", "--scenario", "example3"],
                 ["simulate", "--dump-config"]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = rotwave.cli.main(argv)
        print(argv[0], rc, hopf._periodic_sampler.cache_info().currsize)
"""


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh ``python -S`` that imports rotwave from this checkout, with ``args``
    as its arguments."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-S", "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_cli_generates_one_dataclass_and_bch_loads_no_json_typing_or_pathlib(tmp_path):
    run = fresh(CODE, "bch", "0", "0", "1", "1", "0", "0", "--check")
    assert run.stdout.splitlines()[:2] == ["[]", "0 []"], run.stderr
    run = fresh(CODE, "simulate", "--dump-config")
    assert run.stdout.splitlines()[:2] == ["[]", "0 ['json']"], run.stderr
    run = fresh(CODE, "simulate", "--horizon", "1", "--out", str(tmp_path))
    assert run.stdout.splitlines()[:2] == [
        "['rotwave.flow.ForcingSignal']", "0 ['dataclasses', 'pathlib']",
    ], run.stderr


def test_import_rotwave_registers_each_re_exporting_submodule_and_runs_none():
    # perfbench/run.py (the cli round and its set-up probe) and perfbench/jobs.Runner read
    # sys.modules["rotwave.<name>"] after a bare ``import rotwave``: each must be there. A public
    # name runs the modules before its own in rotwave._MODULES: so3's exp_rot runs errors and so3
    run = fresh(IMPORT)
    names = ["bch", "errors", "flow", "hopf", "scenarios", "so3", "tip"]
    assert run.stdout.splitlines() == [
        str(["rotwave", *(f"rotwave.{name}" for name in names)]), "['rotwave']",
        "['rotwave', 'rotwave._numpy', 'rotwave.errors', 'rotwave.so3']",
    ], run.stderr


#: the modules that --dump-config runs: checking a configuration builds its scenarios
CONFIG = ["_numpy", "cli", "errors", "scenarios", "so3"]

#: the modules that every subcommand that integrates runs: integrating runs flow, and flow ode
INTEGRATES = sorted([*CONFIG, "bch", "flow", "ode"])


@pytest.mark.parametrize("argv, ran", [
    ("bch 0 0 1.5707963267948966 1.5707963267948966 0 0 --check", ["_numpy", "bch", "cli", "errors", "so3"]),
    ("simulate --dump-config", CONFIG),
    ("verify --scenario example3", INTEGRATES),
    ("simulate --scenario case1 --lambda 0.05 --horizon 5 --out {out}", INTEGRATES),
    ("drift --scenario example4 --lambda 0.01", sorted([*INTEGRATES, "hopf"])),
    ("frequency --scenario case2 --lambda-grid 0.05,0.1", sorted([*INTEGRATES, "hopf", "tip"])),
], ids=["bch", "dump-config", "verify", "simulate", "drift", "frequency"])
def test_each_readme_subcommand_runs_only_the_modules_it_calls(argv, ran, tmp_path):
    run = fresh(CODE, *argv.format(out=tmp_path / "sim").split())
    lines = run.stdout.splitlines()
    assert lines[1].startswith("0 "), run.stderr
    # frequency runs every module, so a dataclass added to any of them shows here
    assert lines[0] == ("['rotwave.flow.ForcingSignal']" if "flow" in ran else "[]")
    assert lines[2] == str(["rotwave", *(f"rotwave.{name}" for name in ran)])


@pytest.mark.parametrize("argv, ran", [
    ("simulate --scenario nope", CONFIG),
    # _load checks the flags before it reads a name of the lazy scenarios module
    ("simulate --rtol 0", ["_numpy", "cli", "errors", "so3"]),
], ids=["unknown-scenario", "rtol-0"])
def test_a_configuration_error_runs_no_flow(argv, ran):
    run = fresh(CODE, *argv.split())
    assert run.stdout.splitlines() == ["[]", "2 []", str(["rotwave", *(f"rotwave.{name}" for name in ran)])]
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1


def test_a_scenario_period_runs_no_flow():
    code = f"""if True:
        import sys, types
        import rotwave.scenarios
        print(rotwave.scenarios.build("case1").period(0.01) > 0.0)
        print(sorted({RAN}), "dataclasses" in sys.modules)
    """
    run = fresh(code)
    assert run.stdout.splitlines() == [
        "True", "['rotwave', 'rotwave._numpy', 'rotwave.errors', 'rotwave.scenarios', 'rotwave.so3'] False",
    ], run.stderr


def test_bch_generates_no_kernel():
    run = fresh(KERNELS)
    assert run.stdout.splitlines() == ["0 [0, 0, 0, 0, 0, 0]"], run.stderr


def test_no_readme_subcommand_compiles_the_periodic_part_sampler(tmp_path):
    run = fresh(README_RUNS, str(tmp_path / "sim"))
    commands = ("simulate", "frequency", "drift", "bch", "verify", "simulate")
    assert run.stdout.splitlines() == [f"{command} 0 0" for command in commands], run.stderr
