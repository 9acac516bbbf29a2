"""Regenerate the golden outputs of the README's CLI commands.

Runs the six commands of the README's CLI section through
``rotwave.cli.main`` in this interpreter and writes under ``tests/golden/``:

- ``<name>.txt``, the stdout of each command, with the ``--out`` directory
  of ``simulate`` written as ``out/`` whatever directory the run used;
- ``out/<file>``, the file that ``simulate`` writes;
- ``fingerprint.json``, the host that wrote them: the Python version and the
  bit patterns of a few ``math.sin``, ``cos`` and ``atan2`` values.

``tests/test_golden.py`` reruns the commands and compares their outputs with
these files: byte for byte on a host with the same fingerprint, else text
exactly and numbers within a budget. A change that means to move an output
reruns this script, so that the moved bytes show in the diff.

Usage, from the repository root::

    python scripts/golden_outputs.py
"""
from __future__ import annotations

import io
import json
import math
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: (name, argv) of the README's CLI commands; ``{out}`` is the output directory
COMMANDS = [
    ("simulate", ["simulate", "--scenario", "case1", "--lambda", "0.05", "--horizon", "5",
                  "--out", "{out}"]),
    ("frequency", ["frequency", "--scenario", "case2", "--lambda-grid", "0.05,0.1"]),
    ("drift", ["drift", "--scenario", "example4", "--lambda", "0.01"]),
    ("bch", ["bch", "0", "0", "1.5707963267948966", "1.5707963267948966", "0", "0", "--check"]),
    ("verify", ["verify", "--scenario", "example3"]),
    ("dump-config", ["simulate", "--dump-config"]),
]

#: arguments whose sine, cosine and arc tangent enter the fingerprint: small,
#: near pi/2 and large, where two libms most often round differently
_PROBES = (0.5, 1.5707963267948966, 2.5, 1e6 + 0.3, 1e22)


def fingerprint() -> dict:
    """The Python version and the bits of math's sin, cos and atan2 on this host."""
    return {
        "python": platform.python_version(),
        "sin": [math.sin(x).hex() for x in _PROBES],
        "cos": [math.cos(x).hex() for x in _PROBES],
        "atan2": [math.atan2(x, 3.0).hex() for x in _PROBES],
    }


def run_commands(workdir: Path) -> dict[str, bytes]:
    """The outputs of :data:`COMMANDS`, run in ``workdir``: file name -> bytes.

    Raises RuntimeError when a command exits non-zero."""
    from rotwave.cli import main

    out = workdir / "out"
    outputs = {}
    for name, argv in COMMANDS:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            rc = main([str(out) if a == "{out}" else a for a in argv])
        if rc != 0:
            raise RuntimeError(f"{name} exited {rc}")
        text = stdout.getvalue().replace(str(out), "out")
        outputs[f"{name}.txt"] = text.encode()
    for path in sorted(out.iterdir()):
        outputs[f"out/{path.name}"] = path.read_bytes()
    return outputs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(Path(tmp))
    for name, data in outputs.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")
    print(f"wrote {len(outputs)} outputs and fingerprint.json to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
