"""The README's CLI commands against their committed outputs in tests/golden/.

``scripts/golden_outputs.py`` wrote those files and the fingerprint of the
host that wrote them. On a host with the same fingerprint (Python version and
the bits of a few sin, cos and atan2 values) every output must match byte for
byte. Elsewhere a libm that rounds one sine differently can flip one
step-size decision and move a trajectory by about the integration tolerance,
so the text between numbers and every label must match exactly and each
number within ``ABS_BUDGET + REL_BUDGET * |golden|``. The test id names the
comparison that ran.
"""
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_outputs", ROOT / "scripts" / "golden_outputs.py")
golden_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_outputs)
GOLDEN = golden_outputs.GOLDEN

#: a number in an output: an optional sign, digits with an optional point, an exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

#: about 100 times the integration error of the README runs (rtol 1e-10 on
#: entries of size 1 to 20); the closed-form deviations that verify prints
#: (~1e-11) and the drift's orthogonality defect are noise-sized, and fall
#: under the absolute part
ABS_BUDGET = 1e-8
REL_BUDGET = 1e-8

SAME_HOST = json.loads((GOLDEN / "fingerprint.json").read_text()) == golden_outputs.fingerprint()


def stored_outputs() -> dict[str, bytes]:
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


@pytest.mark.parametrize("comparison", ["bytes" if SAME_HOST else "within-budget"])
def test_readme_commands_write_the_golden_outputs(tmp_path, comparison):
    got = golden_outputs.run_commands(tmp_path)
    want = stored_outputs()
    assert sorted(got) == sorted(want)
    for name, data in want.items():
        if comparison == "bytes":
            assert got[name] == data, f"{name} is not byte-identical to tests/golden/{name}"
        else:
            why = mismatch_within_budget(got[name].decode(), data.decode())
            assert why is None, f"{name}: {why} (fingerprint differs: compared within budget)"


def test_budget_comparison_reads_labels_exactly_and_numbers_within_budget():
    want = "branch: GenericPositive\nnorm: 2.0943951023931953\n"
    assert mismatch_within_budget(want.replace("53\n", "61\n"), want) is None
    assert mismatch_within_budget(want.replace("2.09", "2.10"), want) is not None
    assert mismatch_within_budget(want.replace("Positive", "NonPositive"), want) is not None
