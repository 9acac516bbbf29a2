"""The input contract of the public surface, walked one bad value at a time.

Every function in ``rotwave.__all__`` that takes a number, a 3-vector, an
array or a time, the samplers of a ``GroupTrajectory`` (and of the other
trajectory-like results), and the checked classes are called with one
parameter replaced by a bad value and the others good. Each call must
succeed or raise a ``RotwaveError``, with no warning; a string, bytes, a
boolean or an int past the float range must raise. Object parameters
(trajectories, signals, callables, ``ResonanceClass``) are not varied: they
keep Python's own errors.

The good arguments are chosen so that a call that is not refused ends
quickly: the drift finder's bracket holds no root, so an accepted call ends
in a BracketError after two period solves, and the integrators' forcings
cannot make a horizon of 1e300 restart without end.
"""
import math
import re
import warnings

import numpy as np
import pytest

import rotwave
from rotwave import (
    BallClass,
    ConfigError,
    DomainError,
    ForcingSignal,
    Frame,
    IntegratorConfig,
    RotwaveError,
    as_rotation,
    bch,
    bch_breakdown,
    build,
    classify,
    classify_resonance,
    dexp_op,
    dexpinv_op,
    exp_rot,
    find_orthogonal_branch,
    fit_circle,
    hat,
    hemisphere_sign,
    integrate_euler,
    integrate_group,
    integrate_z_segment,
    lifted_frequency,
    log_rot,
    periodic_part,
    primary_frequency,
    q_map,
    rot_x,
    rot_z,
    tip_trajectory,
    vee,
    verify_against_closed_form,
)

#: one bad value at a time; np.int64 is a number, and with 10**400 (an int
#: past the float range) and bytes it reaches the number rule's rare branches.
#: "123" and b"123" unpack into three items, and float() reads both; a 0-d
#: array is a number when its dtype is a real one
BIG = 10**400
BAD = [
    "123", b"123", True, np.True_, None, math.nan, math.inf, -math.inf, 1e300, -1e300,
    1e-300, 5e-324, -0.0, BIG, np.int64(0), [0.5, 0.5], np.array([]),
    np.array(0.5), np.array(True), np.array(math.nan),
]


def is_boolean(value) -> bool:
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, np.ndarray) and value.dtype.kind == "b"
    )


def must_raise(value) -> bool:
    """A string, bytes, a boolean or an int past the float range is no number."""
    return isinstance(value, (str, bytes)) or is_boolean(value) or value is BIG


E, E1, E2 = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
SC, LAM = build("case1"), 0.1
T = SC.period(LAM)
TRAJ = integrate_group(SC.forcing(LAM), LAM, 2 * T, ref_dir=E)
X = primary_frequency(TRAJ, T)
PART = periodic_part(TRAJ, X, X, T)
EX4 = build("example4")
UNIT_Z = ForcingSignal(lambda t, lam: [0.0, 0.0, 1.0], None)
EULER = integrate_euler(UNIT_Z, LAM, 1.0, 0.5)
ROT = exp_rot([0.1, 0.2, 0.3]).tolist()
POINTS = [[math.cos(a), math.sin(a), 0.5] for a in np.linspace(0.0, 5.0, 6)]
RES = classify_resonance(2.0, 20.0)

# (label, call of the varied value, kind, good value); kinds below
SLOTS = [
    ("hat", hat, "vec3", E),
    ("vee", vee, "array", hat([0.1, 0.2, 0.3]).tolist()),
    ("exp_rot", exp_rot, "vec3", E),
    ("rot_x", rot_x, "number", 0.5),
    ("rot_z", rot_z, "number", 0.5),
    ("as_rotation", as_rotation, "array", ROT),
    ("log_rot", log_rot, "array", ROT),
    ("hemisphere_sign u", lambda v: hemisphere_sign(v, E), "vec3", E),
    ("hemisphere_sign ref", lambda v: hemisphere_sign(E, v), "vec3", E),
    ("q_map ref_dir", lambda v: q_map(BallClass(E), v), "vec3", E),
    ("dexp_op", dexp_op, "vec3", E),
    ("dexpinv_op", dexpinv_op, "vec3", E),
    ("BallClass", BallClass, "vec3", E),
    ("bch x", lambda v: bch(v, E), "vec3", E),
    ("bch y", lambda v: bch(E, v), "vec3", E),
    ("bch_breakdown x", lambda v: bch_breakdown(v, E), "vec3", E),
    ("IntegratorConfig rtol", lambda v: IntegratorConfig(rtol=v), "number", 1e-10),
    ("IntegratorConfig atol", lambda v: IntegratorConfig(atol=v), "number", 1e-12),
    ("integrate_z_segment lam", lambda v: integrate_z_segment(UNIT_Z, v, 0.0, 0.1), "number", LAM),
    ("integrate_z_segment t_start", lambda v: integrate_z_segment(UNIT_Z, LAM, v, 0.1), "number", 0.0),
    ("integrate_z_segment t_max", lambda v: integrate_z_segment(UNIT_Z, LAM, 0.0, v), "number", 0.1),
    ("integrate_z_segment first_step",
     lambda v: integrate_z_segment(UNIT_Z, LAM, 0.0, 0.1, first_step=v), "number", 0.05),
    ("integrate_group lam", lambda v: integrate_group(SC.forcing(LAM), v, T), "number", LAM),
    ("integrate_group t_end", lambda v: integrate_group(SC.forcing(LAM), LAM, v), "number", T),
    ("integrate_group ref_dir",
     lambda v: integrate_group(SC.forcing(LAM), LAM, T, ref_dir=v), "vec3", E),
    ("integrate_euler lam", lambda v: integrate_euler(UNIT_Z, v, 0.1, 0.5), "number", LAM),
    ("integrate_euler t_end", lambda v: integrate_euler(UNIT_Z, LAM, v, 0.5), "number", 0.1),
    ("integrate_euler theta0", lambda v: integrate_euler(UNIT_Z, LAM, 0.1, v), "number", 0.5),
    ("classify_resonance x0_norm", lambda v: classify_resonance(v, 20.0), "number", 2.0),
    ("classify_resonance omega_bif", lambda v: classify_resonance(2.0, v), "number", 20.0),
    ("primary_frequency T", lambda v: primary_frequency(TRAJ, v), "number", T),
    ("lifted_frequency X", lambda v: lifted_frequency(v, 0.3, SC.X0, 20.0, RES), "array", list(X)),
    ("lifted_frequency T0", lambda v: lifted_frequency(X, v, SC.X0, 20.0, RES), "number", 0.3),
    ("lifted_frequency x0", lambda v: lifted_frequency(X, 0.3, v, 20.0, RES), "array", list(SC.X0)),
    ("lifted_frequency omega_lambda",
     lambda v: lifted_frequency(X, 0.3, SC.X0, v, RES), "number", 20.0),
    ("periodic_part X", lambda v: periodic_part(TRAJ, v, X, T), "vec3", list(X)),
    ("periodic_part Xf", lambda v: periodic_part(TRAJ, X, v, T), "vec3", list(X)),
    ("periodic_part T", lambda v: periodic_part(TRAJ, X, X, v), "number", T),
    ("classify x0", lambda v: classify(v, 20.0, X, T, LAM), "array", list(SC.X0)),
    ("classify omega_bif", lambda v: classify(SC.X0, v, X, T, LAM), "number", 20.0),
    ("classify X", lambda v: classify(SC.X0, 20.0, v, T, LAM), "array", list(X)),
    ("classify T", lambda v: classify(SC.X0, 20.0, X, v, LAM), "number", T),
    ("classify lam", lambda v: classify(SC.X0, 20.0, X, T, v), "number", LAM),
    ("find_orthogonal_branch lam",
     lambda v: find_orthogonal_branch(EX4.forcing_family, v, (0.2, 0.3), EX4.X0), "number", 0.01),
    ("find_orthogonal_branch mu_bracket",
     lambda v: find_orthogonal_branch(EX4.forcing_family, 0.01, v, EX4.X0), "pair", (0.2, 0.3)),
    ("find_orthogonal_branch x0",
     lambda v: find_orthogonal_branch(EX4.forcing_family, 0.01, (0.2, 0.3), v), "vec3", EX4.X0),
    ("tip_trajectory x0", lambda v: tip_trajectory(TRAJ, v, SC.r, [0.1], T), "vec3", SC.tip_x0),
    ("tip_trajectory r", lambda v: tip_trajectory(TRAJ, SC.tip_x0, v, [0.1], T), "number", SC.r),
    ("tip_trajectory sample_times",
     lambda v: tip_trajectory(TRAJ, SC.tip_x0, SC.r, v, T), "array", [0.1, 0.2]),
    ("tip_trajectory period",
     lambda v: tip_trajectory(TRAJ, SC.tip_x0, SC.r, [0.1], v), "number", T),
    ("fit_circle points", lambda v: fit_circle(v, E), "array", POINTS),
    ("fit_circle ref_axis", lambda v: fit_circle(POINTS, v), "array", list(E)),
    ("Frame x0_dir", lambda v: Frame(v, E1, E2), "vec3", E),
    ("Frame x1", lambda v: Frame(E, v, E2), "vec3", E1),
    ("build omega_bif", lambda v: build("case1", omega_bif=v), "number", 20.0),
    ("build x0_norm", lambda v: build("case1", x0_norm=v), "number", 2.0),
    ("build r", lambda v: build("case1", r=v), "number", 3.0),
    ("build k", lambda v: build("example4", k=v), "number", 2),
    ("build tip_x0", lambda v: build("case1", tip_x0=v), "vec3", (0.0, 0.6, 0.8)),
    ("build frame", lambda v: build("case1", frame=v), "rows", [E, E1, E2]),
    ("verify_against_closed_form lam", lambda v: verify_against_closed_form(SC, v), "number", LAM),
    ("verify_against_closed_form mu",
     lambda v: verify_against_closed_form(EX4, LAM, v), "number", 0.1),
    ("Scenario.period lam", lambda v: EX4.period(v), "number", LAM),
    ("Scenario.period mu", lambda v: EX4.period(LAM, v), "number", 0.1),
    ("Scenario.forcing lam", lambda v: SC.forcing(v), "number", LAM),
    ("Scenario.forcing mu", lambda v: EX4.forcing(LAM, v), "number", 0.1),
    ("Scenario.closed_form t", lambda v: SC.closed_form(v, LAM), "time", T),
    # the samplers of the trajectory-like results
    ("GroupTrajectory.class_at", TRAJ.class_at, "time", T),
    ("GroupTrajectory.eval_Z", TRAJ.eval_Z, "time", T),
    ("GroupTrajectory.eval_A", TRAJ.eval_A, "times", T),
    ("EulerTrajectory.eval_A", EULER.eval_A, "times", 0.5),
    ("EulerTrajectory.eval_angles", EULER.eval_angles, "time", 0.5),
    ("PeriodicPart.log_Bf", PART.log_Bf, "time", T),
    ("PeriodicPart.eval_B", PART.eval_B, "time", T),
]


def _replace_first(good, value):
    """``good`` (nested lists) with its first number replaced by ``value``."""
    good = list(good)
    good[0] = value if not isinstance(good[0], (list, tuple)) else _replace_first(good[0], value)
    return good


def forms(kind: str, good, value) -> list:
    """The arguments that carry one bad ``value`` into a parameter of ``kind``:

    - number, time: the value itself;
    - vec3, pair, array, rows: the value in place of the whole argument, and
      the good argument with its first number replaced by the value;
    - times: the value, and an array of ``BATCH_MIN`` such times (the
      batched sampler's path).
    """
    if kind in ("number", "time"):
        return [value]
    if kind == "times":
        return [value, np.array([value] * rotwave.flow.BATCH_MIN)]
    return [value, _replace_first(good, value)]


def test_slots_cover_every_public_function_with_numeric_parameters():
    exempt = {  # no numeric parameter, or only object ones
        "available", "ForcingSignal", "GroupTrajectory", "EulerTrajectory", "Scenario",
        "BchBranch", "BchBreakdown", "CircleFit", "FrequencyReport", "MotionClass",
        "PeriodicPart", "ResonanceClass", "ResonanceKind", "TipTrack",
    }
    callables = {
        name for name in rotwave.__all__
        if callable(getattr(rotwave, name))
        and not (isinstance(getattr(rotwave, name), type)
                 and issubclass(getattr(rotwave, name), Exception))
    }
    covered = {label.split()[0] for label, *_ in SLOTS}
    assert callables - exempt <= covered


@pytest.mark.parametrize("value", BAD, ids=repr)
def test_every_public_input_succeeds_or_raises_a_rotwave_error(value):
    for label, call, kind, good in SLOTS:
        for arg in forms(kind, good, value):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    call(arg)
                except RotwaveError:
                    pass
                else:
                    assert not must_raise(value), f"{label} accepted {arg!r}"
            assert not caught, f"{label}({arg!r}) warned: {caught[0].message}"


@pytest.mark.parametrize(
    "error, call",
    [
        (DomainError, lambda: exp_rot("123")),
        (DomainError, lambda: exp_rot(b"abc")),
        (DomainError, lambda: exp_rot([True, 0, 0])),
        (DomainError, lambda: bch("123", [0, 0, 1])),
        (DomainError, lambda: TRAJ.eval_A("0.5")),
        (DomainError, lambda: TRAJ.eval_A(np.array(["0.5"] * 40))),
        (DomainError, lambda: classify_resonance("20", 20.0)),
        (DomainError, lambda: classify(SC.X0, "20", X, T, LAM)),
        (DomainError, lambda: lifted_frequency(X, 0.3, SC.X0, "20", RES)),
        (DomainError, lambda: periodic_part(TRAJ, X, X, "1")),
        (DomainError, lambda: tip_trajectory(TRAJ, SC.tip_x0, "3", [0.1])),
        (DomainError, lambda: tip_trajectory(TRAJ, SC.tip_x0, SC.r, [0.1], period="0.1")),
        (DomainError, lambda: integrate_group(SC.forcing(LAM), "0.1", T)),
        (DomainError, lambda: integrate_group(SC.forcing(LAM), 0.1, "1.0")),
        (DomainError, lambda: integrate_euler(UNIT_Z, 0.1, 1.0, "0.5")),
        (DomainError, lambda: find_orthogonal_branch(EX4.forcing_family, 0.01, ("0", "0.3"), EX4.X0)),
        (DomainError, lambda: verify_against_closed_form(SC, "0.1")),
        (DomainError, lambda: hemisphere_sign([math.nan, 0.0, 1.0], E)),
        (DomainError, lambda: hemisphere_sign([0.0, 0.0, 2.0], E)),
        (ConfigError, lambda: IntegratorConfig(rtol="1e-8")),
        (ConfigError, lambda: build("case1", r="3")),
        (ConfigError, lambda: EX4.forcing(0.01, "0.1")),
        (DomainError, lambda: SC.forcing("x")),
        (DomainError, lambda: SC.closed_form("1", 0.1)),
        (ConfigError, lambda: Frame(x0_dir="001", x1="100", x2="010")),
    ],
)
def test_strings_and_booleans_that_were_read_as_numbers_raise(error, call):
    # each was accepted, or ended in a TypeError, before one rule decided what a number is
    with pytest.raises(error):
        call()


def test_a_0d_array_of_a_real_dtype_is_the_number_it_holds():
    assert np.array_equal(TRAJ.eval_A(np.array(0.5)), TRAJ.eval_A(0.5))
    assert np.array_equal(rot_x(np.array(0.3)), rot_x(0.3))
    assert np.array_equal(exp_rot(np.array([0.1, 0.2, 0.3])), exp_rot([0.1, 0.2, 0.3]))
    assert np.array_equal(
        integrate_group(SC.forcing(LAM), np.array(LAM), T).eval_A(T),
        integrate_group(SC.forcing(LAM), LAM, T).eval_A(T),
    )
    signal = SC.forcing(LAM)
    held = ForcingSignal(signal.eval, lambda lam: np.array(signal.period(lam)))
    assert np.array_equal(
        periodic_part(integrate_group(held, LAM, T), X, X, np.array(T)).eval_B(0.1),
        PART.eval_B(0.1),
    )
    for bad in (np.array(True), np.array("0.5"), np.array(math.nan)):
        with pytest.raises(DomainError):
            rot_x(bad)


@pytest.mark.parametrize("traj", [TRAJ, EULER], ids=["GroupTrajectory", "EulerTrajectory"])
@pytest.mark.parametrize("shape", [(2, 2), (1, 3, 1), (0, 2)], ids=str)
def test_eval_A_names_the_shape_of_the_times_it_refuses(traj, shape):
    # the shape check ran on an empty slice, which reported (0, 2) for a (2, 2) input
    with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
        traj.eval_A(np.zeros(shape))


def _sampled(value) -> np.ndarray:
    """A sampler's result as an ndarray: a ball class by its vector."""
    return value.vector if isinstance(value, BallClass) else value


@pytest.mark.parametrize(
    "label, call, kind, good",
    [pytest.param(*slot, id=slot[0]) for slot in SLOTS if slot[2] in ("time", "times")],
)
def test_a_time_in_any_number_type_samples_as_its_float(label, call, kind, good):
    # a good time as np.float32, np.float64, an int or a 0-d array gives the
    # bits of float(t), as a float64 array: every sampler computes with the
    # float its time check returns, never with the caller's object
    forms = [np.float32(good), np.float64(good), round(good), np.int64(round(good)), np.array(good)]
    if kind == "times":
        forms.append(np.full(rotwave.flow.BATCH_MIN, good, dtype=np.float32))
    for t in forms:
        want = _sampled(call(t.astype(float) if isinstance(t, np.ndarray) and t.ndim else float(t)))
        got = _sampled(call(t))
        assert got.dtype == np.float64 and want.dtype == np.float64, (label, t)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (label, type(t))
