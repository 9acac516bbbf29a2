"""Command-line interface: flags, outputs, exit codes, determinism."""
import inspect
import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotwave import (
    FitError,
    RotwaveError,
    classify,
    cli,
    fit_circle,
    flow,
    hopf,
    integrate_group,
    primary_frequency,
    scenarios,
    tip_trajectory,
)
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


def test_frequency_case2_circle_axis_follows_X(capsys):
    # the README command: the tip circle's axis is oriented by the run's X,
    # which points along +e_x
    entries = run_frequency(capsys, ["--scenario", "case2", "--lambda-grid", "0.05,0.1"])
    for entry in entries:
        assert np.allclose(entry["circle_fit"]["axis"], [1.0, 0.0, 0.0], rtol=0.0, atol=1e-9)
        assert entry["X"][0] > 0.0


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


def norm3(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


@pytest.mark.parametrize(
    "name, lams, mu, horizon",
    [
        ("case2", [0.05, 0.1], None, 5),  # the README command
        ("example4", [0.01], 0.1, 5),
        ("case1", [0.0, 1e-4, 0.05], None, 3),
        ("case3", [0.05], None, 1),  # two period samples: no fit
        ("example5", [1e-6, 0.3], None, 5),
    ],
)
def test_frequency_is_the_library_pipeline(name, lams, mu, horizon, capsys):
    # primary_frequency -> classify -> tip_trajectory -> fit_circle, per lambda:
    # X, Xf, the norms, ortho_defect and the labels bit for bit, the circle to 1e-12
    argv = ["--scenario", name, "--lambda-grid", ",".join(map(repr, lams)),
            "--horizon", str(horizon)]
    entries = run_frequency(capsys, argv + ([] if mu is None else ["--mu", repr(mu)]))
    sc = build(name)
    for lam, entry in zip(lams, entries, strict=True):
        T = sc.period(lam, mu)
        traj = integrate_group(sc.forcing(lam, mu), lam, horizon * T, ref_dir=sc.frame.x0_dir)
        X = primary_frequency(traj, T)
        rep = classify(sc.X0, sc.omega_bif, X, T, lam)
        assert entry["X"] == X.tolist() and entry["Xf"] == rep.Xf.tolist()
        norm = norm3(entry["X"])
        assert entry["norm_X"] == norm and entry["norm_Xf"] == norm3(entry["Xf"])
        assert entry["ortho_defect"] == rep.ortho_defect
        assert entry["resonance"] == {"kind": rep.resonance.kind.value, "k": rep.resonance.k}
        assert entry["motion"] == (None if rep.motion is None else rep.motion.value)
        times = [i * T for i in range(min(5, horizon) + 1)]
        track = tip_trajectory(traj, sc.tip_x0, sc.r, times)
        try:
            fit = fit_circle(track.points, ref_axis=X / norm if norm else X)
        except FitError:
            assert entry["circle_fit"] is None
            continue
        circle = entry["circle_fit"]
        assert np.abs(np.array(circle["axis"]) - fit.axis).max() <= 1e-12
        assert abs(circle["radius"] - fit.radius) <= 1e-12
        assert abs(circle["rms"] - fit.rms_residual) <= 1e-12


def test_frequency_tip_samples_start_at_the_identity():
    # frequency takes the tip at iT as A(iT) x0, as tip_trajectory's A(0)^T A(iT) x0
    for name in available():
        sc = build(name)
        mu = 0.1 if sc.takes_mu else None
        for lam in (0.0, 0.05):
            T = sc.period(lam, mu)
            traj = integrate_group(sc.forcing(lam, mu), lam, T, ref_dir=sc.frame.x0_dir)
            assert traj._A_entries(0.0) == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), name


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


@pytest.mark.parametrize(
    "components",
    [["1e308", "1e308", "0"], ["1e200", "0", "1e200"], ["inf", "0", "0"], ["0", "nan", "0"]],
    ids=["1e308", "1e200", "inf", "nan"],
)
def test_bch_components_without_a_finite_norm_exit_2(capsys, components):
    # a configuration error like every other bad number; 1e308 ended in a traceback
    assert main(["bch", "0", "0", "1", *components]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bch components: ") and "Traceback" not in err


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


def test_drift_takes_the_defect_from_the_root_finds_own_period_class(capsys, monkeypatch):
    # the search integrates four periods, and the defect at mu* reuses one
    calls = []
    integrate = hopf.integrate_group
    monkeypatch.setattr(hopf, "integrate_group", lambda *a, **k: calls.append(a) or integrate(*a, **k))
    assert main(["drift", "--scenario", "example4", "--lambda", "0.01"]) == 0
    assert len(calls) == 4
    assert json.loads(capsys.readouterr().out)["ortho_defect"] is not None


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "example3", "--lambda", "0.01", "--atol", "1e-200"],
        ["simulate", "--atol", "1e-320"],
    ],
)
def test_tiny_atol_is_numerical_error(tmp_path, capsys, argv):
    # the error norm's squares overflow the float range: every step fails
    # until the step size underflows, so the run exits 3 with no traceback
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step size" in err and "Traceback" not in err


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


def test_verify_writes_its_report_to_out(tmp_path, capsys):
    argv = ["verify", "--scenario", "example5", "--lambda", "0.01"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    out = tmp_path / "sub" / "verify.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == report


@pytest.mark.parametrize("command", ["drift", "verify"])
@pytest.mark.parametrize("flag", ["--horizon", "--samples-per-period"])
def test_drift_and_verify_take_no_sampling_flags(command, flag):
    # neither subcommand samples a trajectory, so argparse rejects the flags
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([command, "--scenario", "example4", "--lambda", "0.01", flag, "2"])
    assert rc == 2 and f"unrecognized arguments: {flag}" in err.getvalue()


@pytest.mark.parametrize(
    "command, flag",
    [
        *[(cmd, "--restart-margin") for cmd in ("simulate", "frequency", "drift", "verify")],
        ("frequency", "--samples-per-period"),
    ],
)
def test_removed_flags_are_refused(command, flag):
    # the restart margin is flow.RESTART_MARGIN, and frequency writes no per-period rows
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([command, "--scenario", "example4", "--lambda", "0.01", flag, "2",
                   "--dump-config"])
    assert rc == 2 and f"unrecognized arguments: {flag}" in err.getvalue()
    assert "Traceback" not in err.getvalue()


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
        # a list is flags: constants that overflow at a (lambda, mu) the run uses
        ("frequency", ["--scenario", "example4", "--mu", "1e200"]),
        ("drift", ["--scenario", "example4", "--lambda", "0.01", "--mu-bracket", "0,1e300"]),
        ("verify", {"scenario": "example4", "overrides": {"k": 400}, "lambda_grid": [100]}),
        # tolerances that the integrator refuses
        ("simulate", ["--rtol", "-1"]),
        ("frequency", ["--atol", "0"]),
        ("drift", {"scenario": "example4", "rtol": 0}),
    ],
)
def test_dump_config_rejects_what_the_run_rejects(tmp_path, capsys, command, doc):
    # unknown scenario, bad overrides, mu without a drift parameter, drift
    # on a one-parameter family, overflowing constants, tolerances that are
    # not positive: the dump exits 2 as the run does
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc if isinstance(doc, dict) else {}))
    flags = doc if isinstance(doc, list) else []
    for extra in (["--dump-config"], ["--out", str(tmp_path / "out")]):
        assert main([command, "--config", str(cfg), *flags, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rtol", "0"], "error: rtol must be positive and finite, got 0.0\n"),
        (["--atol", "nan"], "error: atol must be positive and finite, got nan\n"),
    ],
)
def test_a_tolerance_the_integrator_refuses_prints_its_rule(capsys, flags, message):
    # the CLI checks the tolerances with the integrator's own IntegratorConfig
    for extra in ([], ["--dump-config"]):
        assert main(["simulate", *flags, *extra]) == 2
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["frequency", "--scenario", "case2"],
        ["drift", "--scenario", "example4"],
        ["verify", "--scenario", "example5"],
    ],
)
def test_dump_config_runs_nothing(argv, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("--dump-config integrated")

    # each subcommand imports these from their modules when it runs
    monkeypatch.setattr(flow, "integrate_group", fail)
    monkeypatch.setattr(hopf, "_orthogonal_branch", fail)
    monkeypatch.setattr(scenarios, "verify_against_closed_form", fail)
    assert main([*argv, "--lambda", "0.01", "--dump-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == argv[2] and doc["lambda_grid"] == [0.01]


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


@pytest.mark.parametrize(
    "text, message", [(None, "cannot read config file"), ("[1, 2]", "must contain a JSON object")]
)
def test_config_file_unreadable_or_not_an_object(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["frequency", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["drift", "--scenario", "example4", "--mu-bracket", "0.1"], "exactly two"),
        (["frequency", "--lambda-grid", "a,b"], "comma-separated numbers"),
        (["frequency", "--lambda", "0.05,0.1"], "expects a number"),
        (["frequency", "--lambda", "0.05", "--lambda-grid", "0.1"], "not allowed with"),
    ],
)
def test_number_list_flags_exit_2(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_negative_lambda_rejected(capsys):
    assert main(["frequency", "--scenario", "case1", "--lambda", "-0.1"]) == 2


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["bch", "-1e-3", "0", "0", "0", "0", "1"], ["bch", "-0.001", "0", "0", "0", "0", "1"]),
        (["bch", "-.5", "0", "0", "0", "0", "-1.1007993545669002e-08"],
         ["bch", "-0.5", "0", "0", "0", "0", "-0.000000011007993545669002"]),
        (["verify", "--scenario", "example4", "--mu", "-1e-3"],
         ["verify", "--scenario", "example4", "--mu", "-0.001"]),
        (["drift", "--scenario", "example4", "--lambda", "0.01", "--mu-bracket", "-0.001,0.3"],
         ["drift", "--scenario", "example4", "--lambda", "0.01", "--mu-bracket=-0.001,0.3"]),
    ],
    ids=["bch-exponent", "bch-point-and-printed-form", "verify-mu", "drift-bracket"],
)
def test_negative_numbers_in_every_form_are_values(capsys, argv, same_as):
    # argparse took -1e-3 and -0.001,0.3 for unknown options: a usage error, exit 2
    assert main(same_as) == 0
    want = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frequency", "--scenario", "case1", "--lambda", "-1e-3"],
         "error: lambda must be nonnegative and finite, got -0.001"),
        (["verify", "--scenario", "example3", "--rtol", "-inf"],
         "error: rtol must be positive and finite, got -inf"),
        (["bch", "-inf", "0", "0", "0", "0", "1"], "error: bch components: "),
        (["verify", "--mu", "-1x"], "argument --mu: invalid float value: '-1x'"),
        (["verify", "--mu", "-x"], "argument --mu: expected one argument"),
    ],
)
def test_negative_number_like_values_reach_their_own_checks(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_out_under_file_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["simulate", "--scenario", "case1", "--lambda", "0.01",
               "--horizon", "1", "--out", str(blocker / "sub")])
    assert rc == 2


BCH = ["bch", "0", "0", "1", "0", "0", "1"]


class FullStdout(io.StringIO):
    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stdout", [None, FullStdout()], ids=["none", "full"])
def test_a_failed_stdout_write_is_an_io_error(stdout):
    # as an unwritable --out: exit 2 and one error line; the failed stream
    # is dropped, so the interpreter does not flush it again at exit
    err = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(err):
        assert main(BCH) == 2
        assert sys.stdout is None
    assert err.getvalue().startswith("error: cannot write to stdout: ")
    assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["frequency", "--help"]], ids=" ".join)
def test_help_is_written_through_the_one_sink(argv, capsys):
    # exit 0 with the help on stdout; a stdout that fails is an IoError, as for any output
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: rotwave") and out.endswith("\n")
    err = io.StringIO()
    with redirect_stdout(None), redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue() == "error: cannot write to stdout: it is closed\n"


@pytest.mark.parametrize("command", ["simulate", "frequency", "drift", "verify"])
def test_scenario_help_names_every_scenario(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for name in available():
        assert name in out, (command, name)


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["frequency", "--scenario", "case2", "--lambda", "0.05", "--horizon", "1"], "pipe"),
        (BCH, "pipe"),
        (BCH, "closed"),
        (BCH, "/dev/full"),
        # argparse's help text, which it writes itself
        (["--help"], "pipe"),
        (["frequency", "--help"], "pipe"),
    ],
)
def test_stdout_failures_exit_2_in_a_fresh_interpreter(argv, stdout):
    # stdout is block-buffered, as it is by default for a pipe or a file
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    fd, preexec = None, None
    if stdout == "pipe":  # closed by its reader before the child writes
        read_end, fd = os.pipe()
        os.close(read_end)
    elif stdout == "closed":  # the child starts with no fd 1, so sys.stdout is None
        preexec = lambda: os.close(1)  # noqa: E731
    elif os.path.exists("/dev/full"):
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        pytest.skip("no /dev/full")
    try:
        proc = subprocess.run([sys.executable, "-m", "rotwave.cli", *argv], env=env, stdout=fd,
                              stderr=subprocess.PIPE, preexec_fn=preexec, text=True, timeout=120)
    finally:
        if fd is not None:
            os.close(fd)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write to stdout") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


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
        # each range check of RunConfig.validate
        ("simulate", {"horizon": 0}),
        ("simulate", {"samples_per_period": 0}),
        ("simulate", {"rtol": 10**400}),
        ("simulate", {"rtol": True}),
        ("simulate", {"scenario": "example4", "mu": "0.1"}),
        ("simulate", {"out": 5}),
        ("simulate", {"lambda_grid": []}),
        ("drift", {"scenario": "example4", "mu_bracket": ["a", 0.3]}),
        # booleans are not numbers, in an override scalar or a nested list
        ("simulate", {"overrides": {"k": True, "r": True}}),
        ("simulate", {"overrides": {"r": True}}),
        ("frequency", {"overrides": {"tip_x0": [0.0, True, 1.0]}}),
        ("frequency", {"overrides": {"frame": [[0, 0, 1], [1, 0, 0], [0, True, 0]]}}),
        # vectors that are not three finite numbers
        ("simulate", {"overrides": {"tip_x0": [10**400, 0.0, 1.0]}}),
        ("simulate", {"overrides": {"tip_x0": "abc"}}),
        ("simulate", {"overrides": {"frame": [[0, 0, 1], [1, 0, 0]]}}),
        ("simulate", {"overrides": {"frame": 5}}),
        # settings that no longer exist
        ("simulate", {"restart_margin": 0.1}),
        ("frequency", {"overrides": {"theta0": 0.5}}),
        ("frequency", {"overrides": {"g": 0}}),
        # strings are not numbers, in an override scalar or a vector
        ("simulate", {"overrides": {"r": "3"}}),
        ("simulate", {"overrides": {"tip_x0": ["1", "2", "3"]}}),
        ("simulate", {"overrides": {"frame": ["001", "100", "010"]}}),
    ],
)
def test_config_file_bad_values_exit_2(tmp_path, capsys, command, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    for extra in ([], ["--dump-config"]):
        assert main([command, "--config", str(cfg), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("row, name", [(0, "x0_dir"), (1, "x1"), (2, "x2")])
def test_config_file_frame_row_off_the_unit_sphere_exits_2(tmp_path, capsys, row, name):
    rows = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    rows[row] = [a * (1.0 + 2e-10) for a in rows[row]]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"overrides": {"frame": rows}}))
    for extra in ([], ["--dump-config"]):
        assert main(["frequency", "--config", str(cfg), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: frame vector {name}: {name} must be a unit vector")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["verify", "--scenario", "example4", "--mu", "1e300"], None),
        (["frequency", "--scenario", "example4", "--mu", "1e200"], None),
        (["drift", "--scenario", "example4", "--lambda", "0.01", "--mu-bracket", "0,1e300"], None),
        (["verify"], {"scenario": "case2", "overrides": {"x0_norm": 1e200, "omega_bif": 1e200}}),
        (["verify", "--lambda", "100"], {"scenario": "example4", "overrides": {"k": 400}}),
    ],
)
def test_parameters_whose_constants_overflow_exit_2(tmp_path, capsys, argv, doc):
    # mu**2, x0_norm**2 and sqrt(lambda)**k pass validation but overflow the
    # float range when the scenario's constants are first computed
    if doc is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err


@pytest.mark.parametrize("command", ["frequency", "drift", "verify", "simulate"])
@pytest.mark.parametrize("overrides", [{"x0_norm": 1e-200}, {"x0_norm": 1e-320, "k": 3}])
def test_an_example4_norm_that_underflows_exits_2(tmp_path, capsys, command, overrides):
    # the division by |X0 + mu X1| or by |X0| / k raised ZeroDivisionError with a traceback
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "example4", "overrides": overrides}))
    for extra in ([], ["--dump-config"]):
        assert main([command, "--config", str(cfg), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: scenario example4: |X0 + mu X1| / k underflows to 0")


@pytest.mark.parametrize("command", ["frequency", "verify", "simulate"])
@pytest.mark.parametrize("name", ["example2", "example3"])
def test_a_resonant_norm_that_underflows_at_lambda_zero_exits_2(tmp_path, capsys, command, name):
    # verify's default grid holds lambda = 0, where sqrt(|X0|^2 + lambda) is 0
    doc = {"scenario": name, "overrides": {"x0_norm": 1e-320, "omega_bif": 1e-320}}
    if command != "verify":
        doc["lambda_grid"] = [0.01, 0.0]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    for extra in ([], ["--dump-config"]):
        assert main([command, "--config", str(cfg), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err == f"error: scenario {name}: a norm underflows to 0 at lambda 0.0\n"


@pytest.mark.parametrize("command", ["frequency", "verify", "simulate"])
def test_a_period_that_overflows_exits_2(tmp_path, capsys, command):
    # the infinite period reached the integrator, which exited 3 for t_end = inf
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"scenario": "case1", "overrides": {"omega_bif": 1e-320}, "lambda_grid": [0.0]}
    ))
    for extra in ([], ["--dump-config"]):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: scenario case1: the period 2 pi / |omega + lambda| overflows at lambda 0.0\n"
        )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, periods", [("frequency", 5), ("verify", 2), ("simulate", 5)])
def test_an_end_time_that_overflows_exits_2(tmp_path, capsys, command, periods):
    # T = 2 pi / 5e-308 is finite, but the horizon's 5 T and verify's 2 T are not: the run
    # reached the integrator, which exited 3 for t_end = inf, and the dump exited 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"scenario": "case1", "overrides": {"omega_bif": 5e-308}, "lambda_grid": [0.0]}
    ))
    for extra in ([], ["--dump-config"]):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: scenario case1: the end time {periods} T overflows at lambda 0.0\n"
        )
    assert not (tmp_path / "out").exists()
    # a horizon of one period ends at T, which is finite
    assert main(["simulate", "--config", str(cfg), "--horizon", "1", "--dump-config"]) == 0


def test_the_parser_scenario_names_equal_available():
    # restated in cli so that building the parser runs neither scenarios nor flow
    assert list(cli._SCENARIOS) == available()


def test_ortho_defect_of_a_zero_class_is_none(monkeypatch):
    # X = 0 at mu* has no direction: the defect is 0/0, reported as null
    monkeypatch.setattr(hopf, "_orthogonal_branch", lambda *args: (0.1, ((0.0, 0.0, 0.0), 0.3)))
    entry = cli._drift_entry(build("example4"), 0.01, RunConfig().validate("drift"))
    assert entry == {"lambda": 0.01, "mu_star": 0.1, "ortho_defect": None}


def test_json_text_rejects_what_it_cannot_format():
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._json_text([0.5, object()])


def test_entry_points_exit_with_mains_code(monkeypatch, capsys):
    # the console script and python -m rotwave.cli
    monkeypatch.setattr(sys, "argv", ["rotwave", "bch", "0", "0", "1", "0", "0", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
        # runpy warns that rotwave.cli is already imported; it runs it afresh
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("rotwave.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == first
    monkeypatch.setattr(sys, "argv", ["rotwave", "verify", "--horizon", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2


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


def test_frequency_horizon_is_bounded_alone(capsys):
    # frequency reads no samples_per_period: past 10000 periods (the rows bound
    # at the default 100 samples) it runs, and only horizon <= MAX_SAMPLES holds
    args = ["frequency", "--scenario", "case2", "--lambda", "0.05"]
    assert main([*args, "--horizon", "5"]) == 0
    five = capsys.readouterr().out
    assert main([*args, "--horizon", "10001"]) == 0
    assert capsys.readouterr().out == five
    assert main([*args, "--horizon", str(MAX_SAMPLES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"horizon must be <= {MAX_SAMPLES}" in captured.err


def test_config_file_numbers_run_as_the_same_flags(tmp_path, capsys):
    # JSON integers become the floats that the flags give: lambda 0 names the file lambda0.0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "scenario": "example4", "lambda_grid": [0], "mu": 0, "mu_bracket": [0, 1],
        "rtol": 1, "atol": 1, "horizon": 1, "samples_per_period": 4,
    }))
    flags = ["--scenario", "example4", "--lambda", "0", "--mu", "0", "--rtol", "1",
             "--atol", "1", "--horizon", "1", "--samples-per-period", "4"]
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert main(["simulate", *flags, "--out", str(tmp_path / "flags")]) == 0
    files = sorted(p.name for p in (tmp_path / "file").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert files == ["example4_lambda0.0.csv"]
    name = files[0]
    assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    # the dumped text of such integers is unchanged
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert '"lambda_grid": [\n    0\n  ]' in dumped and '"rtol": 1,' in dumped
    assert json.loads(dumped)["mu_bracket"] == [0, 1]


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


CONFIG_KEYS = sorted(RunConfig.FIELDS)


def test_run_config_fields_are_its_constructor_parameters():
    # the config file's keys and --dump-config's are RunConfig.FIELDS
    assert list(inspect.signature(RunConfig).parameters) == list(RunConfig.FIELDS)
    assert list(vars(RunConfig())) == list(RunConfig.FIELDS)

#: values that validate, so that a share of the fuzzed configs is small
#: enough (a few rows) to be run for real
RUNNABLE = {
    "scenario": st.sampled_from(available()),
    "lambda_grid": st.lists(st.floats(0.0, 0.2), min_size=1, max_size=2),
    "mu": st.none() | st.floats(0.0, 0.3),
    "rtol": st.floats(1e-12, 1e-6),
    "atol": st.floats(1e-14, 1e-8),
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
    # a config whose dump passes has passed every configuration check, so
    # its run, done when its output is a few rows, exits 0, or 3 for a
    # numerical failure that a fuzzed tolerance or lambda may cause
    dumped = json.loads(out.getvalue())
    rows = len(dumped["lambda_grid"]) * (dumped["horizon"] * dumped["samples_per_period"] + 1)
    if rows > 12:
        return
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp / "out")])
    assert rc in (0, 3)
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=200)
@given(
    name=st.sampled_from(available()),
    overrides=st.dictionaries(st.sampled_from(sorted(_ALLOWED_OVERRIDES)), JSON_VALUES),
    lam=st.floats(0.0, 1e3),
)
def test_scenario_overrides_fuzz_raise_only_rotwave_errors(name, overrides, lam):
    # a config file's "overrides" object reaches scenarios.build unchanged; the
    # scenario computes its constants when a period, forcing or closed form
    # first asks for them
    try:
        sc = build(name, **overrides)
        sc.period(lam)
        sc.forcing(lam).eval(1.0, lam)
        sc.closed_form(1.0, lam)
    except RotwaveError:
        pass
