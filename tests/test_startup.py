"""Start-up: what a fresh interpreter builds and loads for the CLI.

The interpreter runs with ``-S``, so no ``.pth`` file of site-packages loads
modules of its own, and only rotwave's imports decide what ``sys.modules``
holds. Generating a dataclass execs and compiles its methods in every fresh
process; ``ForcingSignal`` alone stays one, as code outside the package
passes it to ``dataclasses.replace``. ``bch`` reads and writes no JSON and
builds no path, and generates no kernel: the straight-line kernels of the
integrator, the forcings and the closed forms, the array coefficients of the
batched sampler and the periodic-part sampler, compile at their first use, so
a process that neither integrates nor samples spends no compile time on them.
No README subcommand calls ``periodic_part``, so none compiles its sampler.
"""
import os
import subprocess
import sys
from pathlib import Path

import rotwave

SRC = str(Path(rotwave.__file__).resolve().parents[1])

CODE = """if True:
    import contextlib, io, sys
    import rotwave.cli
    print(sorted({
        f"{obj.__module__}.{obj.__qualname__}"
        for mod in list(sys.modules.values()) if mod.__name__.startswith("rotwave")
        for obj in vars(mod).values() if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = rotwave.cli.main(["bch", "0", "0", "1", "1", "0", "0", "--check"])
    print(rc, [name for name in ("json", "typing", "pathlib") if name in sys.modules])
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


def test_cli_generates_one_dataclass_and_bch_loads_no_json_typing_or_pathlib():
    run = fresh(CODE)
    assert run.stdout.splitlines() == ["['rotwave.flow.ForcingSignal']", "0 []"], run.stderr


def test_bch_generates_no_kernel():
    run = fresh(KERNELS)
    assert run.stdout.splitlines() == ["0 [0, 0, 0, 0, 0, 0]"], run.stderr


def test_no_readme_subcommand_compiles_the_periodic_part_sampler(tmp_path):
    run = fresh(README_RUNS, str(tmp_path / "sim"))
    commands = ("simulate", "frequency", "drift", "bch", "verify", "simulate")
    assert run.stdout.splitlines() == [f"{command} 0 0" for command in commands], run.stderr
