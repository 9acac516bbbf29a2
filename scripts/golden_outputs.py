"""Regenerate, or check, the golden outputs of the CLI commands.

Runs the six commands of the README's CLI section, and a few more that reach
the edges (``verify`` of every family, ``simulate`` of both forcing shapes,
``drift`` over a lambda grid, and ``frequency`` of example4 at k = 2 and 3 on
its orthogonal branch mu = sqrt(lambda), with k and mu set by a config file),
through ``rotwave.cli.main`` in this interpreter, and writes under
``tests/golden/``:

- ``<name>.txt``, the stdout of each command, with the ``--out`` directory
  of ``simulate`` written as ``out/`` whatever directory the run used;
- ``out/<file>``, the files that ``simulate`` writes;
- ``fingerprint.json``, the host that wrote them: the Python version and the
  bit patterns of a few ``math.sin``, ``cos`` and ``atan2`` values.

With ``--check`` it writes nothing and compares instead: byte for byte on a
host with the same fingerprint, else the text between numbers and every label
exactly and each number within ``ABS_BUDGET + REL_BUDGET * |golden|``. It
prints which comparison ran and exits 1 on a mismatch. ``tests/test_golden.py``
runs the same comparison. A change that means to move an output reruns this
script without ``--check``, so that the moved bytes show in the diff.

Usage, from the repository root::

    python scripts/golden_outputs.py [--check]
"""
from __future__ import annotations

import io
import json
import math
import platform
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: (name, argv) of the commands; ``{out}`` is the output directory and
#: ``{dir}`` the directory that holds :data:`CONFIGS`
COMMANDS = [
    ("simulate", ["simulate", "--scenario", "case1", "--lambda", "0.05", "--horizon", "5",
                  "--out", "{out}"]),
    ("frequency", ["frequency", "--scenario", "case2", "--lambda-grid", "0.05,0.1"]),
    ("drift", ["drift", "--scenario", "example4", "--lambda", "0.01"]),
    ("bch", ["bch", "0", "0", "1.5707963267948966", "1.5707963267948966", "0", "0", "--check"]),
    ("verify", ["verify", "--scenario", "example3"]),
    ("dump-config", ["simulate", "--dump-config"]),
    # the edges
    ("verify-all", ["verify"]),
    ("simulate-example4", ["simulate", "--scenario", "example4", "--lambda", "0.01",
                           "--horizon", "2", "--out", "{out}"]),
    ("simulate-example5", ["simulate", "--scenario", "example5", "--lambda", "0.01",
                           "--horizon", "2", "--out", "{out}"]),
    ("drift-grid", ["drift", "--scenario", "example4", "--lambda-grid", "0.01,0.04"]),
] + [
    (f"frequency-k{k}-{lam}", ["frequency", "--scenario", "example4",
                               "--config", f"{{dir}}/k{k}-{lam}.json", "--lambda", lam])
    for k in (2, 3) for lam in ("1e-05", "1e-06")
]

#: config files that the commands read, written into the run's directory
CONFIGS = {
    f"k{k}-{lam}.json": {"overrides": {"k": k}, "mu": math.sqrt(float(lam))}
    for k in (2, 3) for lam in ("1e-05", "1e-06")
}

#: arguments whose sine, cosine and arc tangent enter the fingerprint: small,
#: near pi/2 and large, where two libms most often round differently
_PROBES = (0.5, 1.5707963267948966, 2.5, 1e6 + 0.3, 1e22)

#: a number in an output: an optional sign, digits with an optional point, an exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

#: about 100 times the integration error of the README runs (rtol 1e-10 on
#: entries of size 1 to 20); the closed-form deviations that verify prints
#: (~1e-11) and the drift's orthogonality defect are noise-sized, and fall
#: under the absolute part
ABS_BUDGET = 1e-8
REL_BUDGET = 1e-8


def fingerprint() -> dict:
    """The Python version and the bits of math's sin, cos and atan2 on this host."""
    return {
        "python": platform.python_version(),
        "sin": [math.sin(x).hex() for x in _PROBES],
        "cos": [math.cos(x).hex() for x in _PROBES],
        "atan2": [math.atan2(x, 3.0).hex() for x in _PROBES],
    }


def same_host() -> bool:
    """Whether this host has the fingerprint of the host that wrote the golden files."""
    return json.loads((GOLDEN / "fingerprint.json").read_text()) == fingerprint()


def run_commands(workdir: Path) -> dict[str, bytes]:
    """The outputs of :data:`COMMANDS`, run in ``workdir``: file name -> bytes.

    Raises RuntimeError when a command exits non-zero."""
    from rotwave.cli import main

    out = workdir / "out"
    for name, doc in CONFIGS.items():
        (workdir / name).write_text(json.dumps(doc))
    outputs = {}
    for name, argv in COMMANDS:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            rc = main([a.replace("{out}", str(out)).replace("{dir}", str(workdir)) for a in argv])
        if rc != 0:
            raise RuntimeError(f"{name} exited {rc}")
        text = stdout.getvalue().replace(str(out), "out")
        outputs[f"{name}.txt"] = text.encode()
    for path in sorted(out.iterdir()):
        outputs[f"out/{path.name}"] = path.read_bytes()
    return outputs


def stored_outputs() -> dict[str, bytes]:
    """The committed golden outputs: file name under ``tests/golden/`` -> bytes."""
    return {
        p.relative_to(GOLDEN).as_posix(): p.read_bytes()
        for p in sorted(GOLDEN.rglob("*"))
        if p.is_file() and p.name != "fingerprint.json"
    }


def mismatch_within_budget(got: str, want: str) -> str | None:
    """Why ``got`` differs from ``want`` beyond the budget, or None."""
    if NUMBER.sub("#", got) != NUMBER.sub("#", want):
        return "the text between the numbers differs"
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        if abs(float(g) - float(w)) > ABS_BUDGET + REL_BUDGET * abs(float(w)):
            return f"{g} differs from {w} beyond the budget"
    return None


def mismatches(got: dict[str, bytes], want: dict[str, bytes], comparison: str) -> list[str]:
    """What differs between two sets of outputs, compared as ``"bytes"`` or ``"within-budget"``."""
    if sorted(got) != sorted(want):
        return [f"the outputs are {sorted(got)}, the golden files {sorted(want)}"]
    found = []
    for name, data in want.items():
        if comparison == "bytes":
            if got[name] != data:
                found.append(f"{name} is not byte-identical to tests/golden/{name}")
        else:
            why = mismatch_within_budget(got[name].decode(), data.decode())
            if why is not None:
                found.append(f"{name}: {why} (fingerprint differs: compared within budget)")
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(Path(tmp))
    if argv == ["--check"]:
        comparison = "bytes" if same_host() else "within-budget"
        found = mismatches(outputs, stored_outputs(), comparison)
        print(f"compared {len(outputs)} outputs with {GOLDEN} ({comparison}): "
              + ("; ".join(found) if found else "all match"))
        return 1 if found else 0
    if argv:
        print("usage: python scripts/golden_outputs.py [--check]", file=sys.stderr)
        return 2
    for name, data in outputs.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")
    print(f"wrote {len(outputs)} outputs and fingerprint.json to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
