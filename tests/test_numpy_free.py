"""No subcommand imports numpy.

Each README command, and ``frequency`` on a two-parameter family, runs in a
fresh interpreter in which ``import numpy`` fails, and must print and write
the same bytes as ``main(argv)`` in this process, where numpy is loaded.
Where numpy is installed, ``frequency`` still does not import it.
"""
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy  # noqa: F401  (the in-process runs happen with numpy loaded)
import pytest

import rotwave
from rotwave.cli import main

SRC = str(Path(rotwave.__file__).resolve().parents[1])

#: run the CLI as ``python -m rotwave.cli`` does, with numpy blocked or not
RUN_CLI = (
    "import runpy, sys\n"
    "if sys.argv.pop(1) == 'block':\n"
    "    sys.modules['numpy'] = None\n"
    "runpy.run_module('rotwave.cli', run_name='__main__')\n"
)

NUMPY_FREE = [
    ["simulate", "--scenario", "case1", "--lambda", "0.05", "--horizon", "5", "--out", "out"],
    ["drift", "--scenario", "example4", "--lambda", "0.01"],
    ["bch", "0", "0", "1.5707963267948966", "1.5707963267948966", "0", "0", "--check"],
    ["verify", "--scenario", "example3"],
    ["frequency", "--scenario", "case2", "--lambda-grid", "0.05,0.1"],
    ["frequency", "--scenario", "example4", "--mu", "0.1", "--lambda", "0.01"],
    ["simulate", "--dump-config"],
    ["frequency", "--scenario", "case2", "--dump-config"],
    ["drift", "--scenario", "example4", "--dump-config"],
    ["verify", "--dump-config"],
]


def fresh(argv, cwd, block: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", RUN_CLI, "block" if block else "load", *argv]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def in_process(argv, cwd, monkeypatch) -> tuple[int, str]:
    monkeypatch.chdir(cwd)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def assert_same_run(argv, tmp_path, monkeypatch, block: bool):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "here").mkdir()
    proc = fresh(argv, tmp_path / "fresh", block)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rc, out = in_process(argv, tmp_path / "here", monkeypatch)
    assert rc == 0
    assert proc.stdout == out
    assert files(tmp_path / "fresh") == files(tmp_path / "here")


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_subcommand_runs_without_numpy(argv, tmp_path, monkeypatch):
    assert_same_run(argv, tmp_path, monkeypatch, block=True)


def test_frequency_imports_no_numpy_where_numpy_is_installed(tmp_path, monkeypatch):
    argv = ["frequency", "--scenario", "case2", "--lambda-grid", "0.05,0.1"]
    assert_same_run(argv, tmp_path, monkeypatch, block=False)
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        "import sys\nfrom rotwave.cli import main\n"
        "main(sys.argv[1:])\nsys.exit(9 * ('numpy' in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys, rotwave, rotwave.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
