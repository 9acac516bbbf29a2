"""The CLI commands of scripts/golden_outputs.py against their committed outputs in tests/golden/.

That script wrote those files and the fingerprint of the host that wrote
them. On a host with the same fingerprint (Python version and the bits of a
few sin, cos and atan2 values) every output must match byte for byte.
Elsewhere a libm that rounds one sine differently can flip one step-size
decision and move a trajectory by about the integration tolerance, so the
text between numbers and every label must match exactly and each number
within the script's budget. The test id names the comparison that ran.
"""
import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_outputs", ROOT / "scripts" / "golden_outputs.py")
golden_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_outputs)
mismatch_within_budget = golden_outputs.mismatch_within_budget


@pytest.mark.parametrize("comparison", ["bytes" if golden_outputs.same_host() else "within-budget"])
def test_readme_commands_write_the_golden_outputs(tmp_path, comparison):
    got = golden_outputs.run_commands(tmp_path)
    assert golden_outputs.mismatches(got, golden_outputs.stored_outputs(), comparison) == []


def test_budget_comparison_reads_labels_exactly_and_numbers_within_budget():
    want = "branch: GenericPositive\nnorm: 2.0943951023931953\n"
    assert mismatch_within_budget(want.replace("53\n", "61\n"), want) is None
    assert mismatch_within_budget(want.replace("2.09", "2.10"), want) is not None
    assert mismatch_within_budget(want.replace("Positive", "NonPositive"), want) is not None


def test_comparison_reports_a_one_ulp_change():
    want = golden_outputs.stored_outputs()
    name = "out/case1_lambda0.05.csv"
    text = want[name].decode()
    last = golden_outputs.NUMBER.findall(text)[-1]
    bumped = repr(math.nextafter(float(last), math.inf))
    got = {**want, name: (text[: text.rindex(last)] + bumped + "\n").encode()}
    assert golden_outputs.mismatches(want, want, "bytes") == []
    assert golden_outputs.mismatches(got, want, "bytes") == [
        f"{name} is not byte-identical to tests/golden/{name}"
    ]
    assert golden_outputs.mismatches(got, want, "within-budget") == []
