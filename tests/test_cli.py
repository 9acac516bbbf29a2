"""Command-line interface: flags, outputs, exit codes, determinism."""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotwave import RotwaveError
from rotwave.cli import MAX_SAMPLES, RunConfig, build_parser, main
from rotwave.scenarios import _ALLOWED_OVERRIDES, available, build

CSV_HEADER = "t," + ",".join(f"a{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)) + ",tipx,tipy,tipz"


def read_lines(path):
    return path.read_text().splitlines()


# ----------------------------------------------------------------- simulate

def test_simulate_writes_csv(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "case1", "--lambda", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "case1_lambda0.01.csv" in out
    path = tmp_path / "case1_lambda0.01.csv"
    lines = read_lines(path)
    assert lines[0] == CSV_HEADER
    assert len(lines) == 502  # header + horizon * samples_per_period + 1
    # rows re-read as rotations applied to the tip seed
    for line in lines[1::100]:
        vals = np.array([float(v) for v in line.split(",")])
        assert vals.shape == (13,)
        a = vals[1:10].reshape(3, 3)
        assert np.linalg.norm(a.T @ a - np.eye(3)) < 1e-8
        assert abs(np.linalg.norm(vals[10:13]) - 3.0) < 1e-8


def test_simulate_lambda_grid_multiple_files(tmp_path, capsys):
    rc = main([
        "simulate", "--scenario", "case2", "--lambda-grid", "0.05,0.1",
        "--horizon", "1", "--samples-per-period", "10", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "case2_lambda0.05.csv").exists()
    assert (tmp_path / "case2_lambda0.1.csv").exists()
    assert len(read_lines(tmp_path / "case2_lambda0.05.csv")) == 12


def test_simulate_unknown_scenario(capsys):
    rc = main(["simulate", "--scenario", "nope", "--lambda", "0.01"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "case1" in err  # the message lists what is available


def test_simulate_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = main([
            "simulate", "--scenario", "case1", "--lambda", "0.05",
            "--horizon", "2", "--out", str(tmp_path / sub),
        ])
        assert rc == 0
    a = (tmp_path / "a" / "case1_lambda0.05.csv").read_bytes()
    b = (tmp_path / "b" / "case1_lambda0.05.csv").read_bytes()
    assert a == b


# ---------------------------------------------------------------- frequency

def run_frequency(capsys, args):
    rc = main(["frequency"] + args)
    assert rc == 0
    return json.loads(capsys.readouterr().out)


def test_frequency_case2_orthogonal_drift(capsys):
    entries = run_frequency(capsys, ["--scenario", "case2", "--lambda", "0.05"])
    (entry,) = entries
    assert entry["lambda"] == 0.05
    assert entry["motion"] == "OrthogonalDrift"
    assert entry["resonance"] == {"kind": "Resonant", "k": 1}
    assert abs(entry["ortho_defect"]) < 1e-6
    assert abs(entry["norm_X"] - np.sqrt(0.05)) < 1e-6
    assert abs(entry["norm_Xf"] - (np.sqrt(0.05) + 20.05)) < 1e-6
    assert entry["circle_fit"] is not None
    assert entry["circle_fit"]["rms"] < 1e-6 * 3.0


def test_frequency_case1_rigid_at_zero(capsys):
    entries = run_frequency(capsys, ["--scenario", "case1", "--lambda", "0"])
    (entry,) = entries
    assert entry["motion"] == "RigidRotation"
    assert np.allclose(entry["X"], [0.0, 0.0, 2.0], atol=1e-9)
    assert entry["X"] == entry["Xf"]


def test_frequency_case3_slow_meander(capsys):
    entries = run_frequency(capsys, ["--scenario", "case3", "--lambda", "0.05"])
    (entry,) = entries
    assert entry["motion"] == "SlowMeanderAboutX0"
    assert entry["ortho_defect"] > 0.1


def test_frequency_resonant_critical_circle_is_null(capsys):
    # at lambda = 0 the resonant monodromy is I: all period samples coincide
    entries = run_frequency(capsys, ["--scenario", "case2", "--lambda", "0"])
    (entry,) = entries
    assert entry["circle_fit"] is None
    assert entry["motion"] == "RigidRotation"


def test_frequency_grid_order(capsys):
    entries = run_frequency(
        capsys, ["--scenario", "case1", "--lambda-grid", "0.01,0.05", "--horizon", "2"]
    )
    assert [e["lambda"] for e in entries] == [0.01, 0.05]


def test_frequency_deterministic(capsys):
    args = ["--scenario", "case1", "--lambda", "0.05", "--horizon", "2"]
    rc = main(["frequency"] + args)
    assert rc == 0
    first = capsys.readouterr().out
    rc = main(["frequency"] + args)
    assert rc == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------- bch

def test_bch_quarter_turns(capsys):
    rc = main(["bch", "0", "0", "1.5707963267948966",
               "1.5707963267948966", "0", "0", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split(": ", 1) for line in out.splitlines() if ": " in line
    )
    vec = [float(v) for v in lines["result"].strip("[]").split(",")]
    assert np.allclose(vec, 1.2091995761561452 * np.ones(3), atol=1e-12)
    assert abs(float(lines["norm"]) - 2.0943951023931953) < 1e-12
    assert lines["branch"] == "GenericNonPositive"  # cos(2 pi / 3) < 0
    assert float(lines["check |exp(result) - exp(x) exp(y)|_F"]) < 1e-10
    for name in ("alpha", "beta", "gamma", "e", "a1", "b1", "c1", "d1", "d", "s"):
        assert name in lines


def test_bch_identity_product(capsys):
    rc = main(["bch", "0.3", "0.1", "-0.2", "-0.3", "-0.1", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "branch: IdentityProduct" in out
    assert "result: [0, 0, 0]" in out


def test_bch_reduces_large_input(capsys):
    rc = main(["bch", "0", "0", "4", "0", "0", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    z = float(out.splitlines()[0].strip("result: []").split(",")[2])
    assert abs(z - (4.0 - 2 * np.pi)) < 1e-12


# -------------------------------------------------------------------- drift

def test_drift_example4(capsys):
    rc = main(["drift", "--scenario", "example4", "--lambda", "0.01"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, dict)  # single lambda -> single object
    assert abs(doc["mu_star"] - 0.1) < 1e-6
    assert abs(doc["ortho_defect"]) < 1e-6


def test_drift_lambda_zero(capsys):
    rc = main(["drift", "--scenario", "example4", "--lambda", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu_star"] == 0.0
    assert doc["ortho_defect"] is None


def test_drift_bad_bracket_is_numerical_error(capsys):
    rc = main(["drift", "--scenario", "example4", "--lambda", "0.01",
               "--mu-bracket", "0.2,0.3"])
    assert rc == 3
    assert "sign" in capsys.readouterr().err


def test_drift_needs_mu_scenario(capsys):
    rc = main(["drift", "--scenario", "case1", "--lambda", "0.01"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["--mu", "5"], {}),
        ([], {"mu": 5.0}),
        (["--mu", "0.1"], {"mu": 0.1}),
    ],
)
def test_drift_rejects_mu(tmp_path, capsys, argv, doc):
    # drift searches for mu* itself: it has no --mu flag, which argparse
    # rejects before the file is read, and a mu in the file is an error
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example4", "lambda_grid": [0.01], **doc}))
    for extra in ([], ["--dump-config"]):
        assert main(["drift", "--config", str(cfg), *argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if argv:
            assert "unrecognized arguments: --mu" in captured.err
        else:
            assert captured.err.startswith("error: ") and "takes no mu" in captured.err


def test_drift_has_no_mu_flag():
    # --mu is neither offered nor taken as an abbreviation of --mu-bracket
    # (a bracket-shaped value would otherwise pass as one)
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        build_parser().parse_args(["drift", "--help"])
    assert "--mu-bracket" in out.getvalue() and "--mu " not in out.getvalue()
    for flag in (["--mu", "0.1"], ["--mu", "0.05,0.2"], ["--mu=0.1"], ["--mu-b", "0,0.3"]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(["drift", "--scenario", "example4", "--lambda", "0.01", *flag])
        assert rc == 2 and "unrecognized arguments: --mu" in err.getvalue(), flag
        assert "Traceback" not in err.getvalue()


# ------------------------------------------------------------------- verify

def test_verify_single_scenario(capsys):
    rc = main(["verify", "--scenario", "example5", "--lambda", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "example5 lambda=0.01" in out
    assert " ok" in out and "FAIL" not in out
    assert "worst deviation:" in out


def verify_lines(capsys, argv):
    rc = main(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0 and lines[-1].startswith("worst deviation:")
    return lines[:-1]


def test_verify_lambda_zero_runs_lambda_zero_alone(capsys):
    lines = verify_lines(capsys, ["--scenario", "example5", "--lambda", "0"])
    assert len(lines) == 1 and lines[0].startswith("example5 lambda=0: ")
    lines = verify_lines(capsys, ["--scenario", "example5", "--lambda-grid", "0,0"])
    assert [line.split(":")[0] for line in lines] == ["example5 lambda=0"] * 2


def test_verify_honours_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example5", "lambda_grid": [0.01]}))
    lines = verify_lines(capsys, ["--config", str(cfg)])
    assert len(lines) == 1 and lines[0].startswith("example5 lambda=0.01: ")
    # flags override the file
    lines = verify_lines(capsys, ["--config", str(cfg), "--scenario", "example1"])
    assert len(lines) == 1 and lines[0].startswith("example1 lambda=0.01: ")
    cfg.write_text(json.dumps({"scenario": "example4", "lambda_grid": [0.0, 0.01], "mu": 0.1}))
    lines = verify_lines(capsys, ["--config", str(cfg)])
    assert [line.split(":")[0] for line in lines] == [
        "example4 lambda=0 mu=0.10000000000000001",
        "example4 lambda=0.01 mu=0.10000000000000001",
    ]
    lines = verify_lines(capsys, ["--scenario", "example4", "--lambda", "0.01", "--mu", "0.2"])
    assert [line.split(":")[0] for line in lines] == [
        "example4 lambda=0.01 mu=0.20000000000000001"
    ]


def test_verify_defaults_without_scenario_or_grid(tmp_path, capsys):
    # a file and a flag that set neither scenario nor lambda keep every
    # example at the default grid
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"horizon": 2}))
    lines = verify_lines(capsys, ["--config", str(cfg), "--rtol", "1e-9"])
    assert len(lines) == 5 * 3 + 2 * 3  # example4 at three mu
    assert {line.split(" ")[0] for line in lines} == {f"example{i}" for i in range(1, 6)}
    assert {line.split(" ")[1].split(":")[0] for line in lines} == {
        "lambda=0", "lambda=0.0001", "lambda=0.01"
    }


@pytest.mark.parametrize(
    "argv, doc",
    [
        ([], {"scenario": "example5", "mu": 0.1}),
        (["--scenario", "case2", "--mu", "0.1"], {}),
        (["--mu", "0.1"], {}),  # the default run includes one-parameter families
    ],
)
def test_verify_rejects_mu_on_a_one_parameter_family(tmp_path, capsys, argv, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    for extra in ([], ["--dump-config"]):
        assert main(["verify", "--config", str(cfg), *argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "takes no mu parameter" in captured.err


# ------------------------------------------------------------ config wiring

def test_dump_config(capsys, tmp_path):
    rc = main(["simulate", "--scenario", "case3", "--lambda", "0.05",
               "--out", str(tmp_path), "--dump-config"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "case3"
    assert doc["lambda_grid"] == [0.05]
    assert doc["horizon"] == 5
    assert list(tmp_path.iterdir()) == []  # dump only, no run


@pytest.mark.parametrize(
    "command, doc",
    [
        ("simulate", {"scenario": "nope"}),
        ("frequency", {"overrides": {"x0_norm": -1.0}}),
        ("simulate", {"scenario": "case1", "mu": 0.1}),
        ("drift", {"scenario": "case2"}),
    ],
)
def test_dump_config_rejects_what_the_run_rejects(tmp_path, capsys, command, doc):
    # unknown scenario, bad overrides, mu without a drift parameter, drift
    # on a one-parameter family: the dump exits 2 as the run does
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    for extra in (["--dump-config"], ["--out", str(tmp_path / "out")]):
        assert main([command, "--config", str(cfg), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_lambda_flags_are_exclusive(capsys):
    rc = main(["frequency", "--scenario", "case1",
               "--lambda", "0.05", "--lambda-grid", "0.01,0.05"])
    assert rc == 2


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "case2", "lambda_grid": [0.05], "horizon": 2}))
    entries = run_frequency(capsys, ["--config", str(cfg)])
    assert entries[0]["motion"] == "OrthogonalDrift"
    # flags override the file
    entries = run_frequency(capsys, ["--config", str(cfg), "--scenario", "case1"])
    assert entries[0]["motion"] == "MeanderO1"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "case1", "wavelength": 3}))
    assert main(["frequency", "--config", str(cfg)]) == 2
    assert "wavelength" in capsys.readouterr().err


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    assert main(["frequency", "--config", str(cfg)]) == 2


def test_negative_lambda_rejected(capsys):
    assert main(["frequency", "--scenario", "case1", "--lambda", "-0.1"]) == 2


def test_out_under_file_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["simulate", "--scenario", "case1", "--lambda", "0.01",
               "--horizon", "1", "--out", str(blocker / "sub")])
    assert rc == 2


def test_bad_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "command, doc",
    [
        ("frequency", {"horizon": "5"}),
        ("frequency", {"lambda_grid": 0.05}),
        ("frequency", {"overrides": {"x0_norm": "abc"}}),
        ("drift", {"scenario": "example4", "lambda_grid": [0.01], "mu_bracket": [0.3, 0.0]}),
        ("frequency", {"seed": 0}),
        ("simulate", {"horizon": 10**400}),
        ("simulate", {"horizon": 10**12}),
        ("simulate", {"horizon": 10001, "samples_per_period": 100}),
        ("frequency", {"horizon": 10**400}),
    ],
)
def test_config_file_bad_values_exit_2(tmp_path, capsys, command, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_sample_count_bound(tmp_path, capsys):
    # horizon x samples-per-period up to MAX_SAMPLES validates, one more does not
    assert main(["simulate", "--horizon", str(MAX_SAMPLES // 4), "--samples-per-period", "4",
                 "--dump-config"]) == 0
    assert main(["simulate", "--horizon", str(MAX_SAMPLES + 1), "--samples-per-period", "1",
                 "--dump-config"]) == 2
    assert str(MAX_SAMPLES) in capsys.readouterr().err
    # an integer past Python's digit limit for int parsing is a JSON error too
    cfg = tmp_path / "run.json"
    cfg.write_text('{"horizon": 1' + "0" * 5000 + "}")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# ------------------------------------------------------------------ fuzzing

#: any value a JSON document can hold, as Python's json module reads it:
#: NaN and infinities included, and integers past the float range, which
#: json parses exactly and float() refuses with OverflowError
BIG_INTS = st.sampled_from([10**400, -(10**400)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | BIG_INTS | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


CONFIG_KEYS = sorted(RunConfig.__dataclass_fields__)

#: values that validate, so that a share of the fuzzed configs is small
#: enough (a few rows) to be run for real
RUNNABLE = {
    "scenario": st.sampled_from(available()),
    "lambda_grid": st.lists(st.floats(0.0, 0.2), min_size=1, max_size=2),
    "mu": st.none() | st.floats(0.0, 0.3),
    "rtol": st.floats(1e-12, 1e-6),
    "atol": st.floats(1e-14, 1e-8),
    "restart_margin": st.floats(0.01, 1.5),
}
CONFIG_DOCS = st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES) | st.fixed_dictionaries(
    {"horizon": st.integers(1, 2), "samples_per_period": st.integers(1, 3)}, optional=RUNNABLE
)


@settings(max_examples=200)
@given(doc=CONFIG_DOCS)
def test_config_file_fuzz_exits_0_or_2(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["simulate", "--config", str(cfg), "--dump-config"])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error: ")
        return
    # a config that validates is also run, when its output is a few rows;
    # exit 3 is a numerical failure that a fuzzed tolerance or lambda may cause
    dumped = json.loads(out.getvalue())
    rows = len(dumped["lambda_grid"]) * (dumped["horizon"] * dumped["samples_per_period"] + 1)
    if rows > 12:
        return
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp / "out")])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=200)
@given(
    name=st.sampled_from(available()),
    overrides=st.dictionaries(st.sampled_from(sorted(_ALLOWED_OVERRIDES)), JSON_VALUES),
)
def test_scenario_overrides_fuzz_raise_only_rotwave_errors(name, overrides):
    # a config file's "overrides" object reaches scenarios.build unchanged
    try:
        build(name, **overrides)
    except RotwaveError:
        pass
