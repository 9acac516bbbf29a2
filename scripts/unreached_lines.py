"""List the executable lines of src/rotwave that the tier-1 suite never runs.

Runs the suite in this interpreter under a ``sys.settrace`` line collector
and prints ``file:line: source`` for every executable line (one that carries
bytecode) that no test reached. Source that the package generates at run time
(the straight-line kernels) counts too: it is recognised by a ``<...>`` file
name and a namespace whose ``__name__`` is a module of the package, and read
back from :mod:`linecache`, where the package enters it. The CLI tests call ``main`` in-process and
hypothesis is derandomized (tests/conftest.py), so the listing repeats from
run to run. Lines that run only in a subprocess, such as the ``__main__``
entry point, cannot be seen here.

Exits 1 when more lines are unreached than ``CEILING``, 2 when the suite
itself fails, else 0. ``CEILING`` is the number of lines that CHANGES.md
names as unreached on purpose; lower it when a line gets reached or deleted.

A test that fails under the tracer is run once more, untraced, in a fresh
interpreter: tracing slows the suite, and a test with a wall-clock bound can
fail for that alone. The suite counts as failed only when a failed test fails
there too, or when a failure has no test id to rerun (a collection error).

Usage, from the repository root::

    python scripts/unreached_lines.py

Tracing slows the suite about 3.3-fold (74 s against 22 s on a 2-core machine).
"""
from __future__ import annotations

import linecache
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

#: unreached lines allowed; each one is named, with its reason, in CHANGES.md
CEILING = 0

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rotwave"


def executable_lines(source: str, filename: str) -> set[int]:
    """Line numbers that carry bytecode in the module ``source`` or any code nested in it."""
    lines: set[int] = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class FailedTests:
    """pytest plugin that records the node id of every test that fails in any phase."""

    def __init__(self):
        self.ids: dict[str, None] = {}

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids[report.nodeid] = None


def passes_untraced(ids: list[str]) -> bool:
    """Whether the tests ``ids`` all pass in a fresh interpreter without the tracer."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    return run.returncode == 0


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        lines = hit.get(name)
        if lines is None:
            if not (name.startswith("<") and str(frame.f_globals.get("__name__")).startswith("rotwave.")):
                return None
            lines = hit[name] = set()  # generated source
        lines.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    failed = FailedTests()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[failed])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = []
    sources = {name: (str(path.relative_to(ROOT)), path.read_text()) for name, path in files.items()}
    sources.update((name, (name, "".join(linecache.getlines(name)))) for name in sorted(set(hit) - set(files)))
    for name, (shown, source) in sources.items():
        text = source.splitlines()
        for line in sorted(executable_lines(source, name) - hit[name]):
            unreached.append(f"{shown}:{line}: {text[line - 1].strip()}")
    print("\n".join(unreached))
    print(f"{len(unreached)} unreached executable line(s) in src/rotwave and its generated source (ceiling {CEILING})")
    if status != 0:
        ids = list(failed.ids)
        if not ids or not passes_untraced(ids):
            print(f"the test suite failed (pytest exit {int(status)})")
            return 2
        print(f"{len(ids)} test(s) failed only under the tracer: {', '.join(ids)}")
    return 1 if len(unreached) > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
