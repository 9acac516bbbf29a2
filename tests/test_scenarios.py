"""Forcing families: construction, validation, closed forms vs the group ODE."""
import inspect
import math
import operator
import types

import numpy as np
import pytest

from rotwave import ConfigError, DomainError, exp_rot, hat
from rotwave.scenarios import _SHAPES, Frame, Scenario, available, build, verify_against_closed_form

import oracles

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

ALL_NAMES = ("example1", "example2", "example3", "example4", "example5")


def ode_residual(sc, t, lam, mu=None, h=1e-4):
    """|A^T Adot - hat(X^G)| with Adot from a 4th-order central difference."""
    weights = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
    a_dot = sum(w * sc.closed_form(t + k * h, lam, mu) for k, w in weights) / (12.0 * h)
    a = sc.closed_form(t, lam, mu)
    x = sc.forcing(lam, mu).eval(t, lam)
    return np.linalg.norm(a.T @ a_dot - hat(x))


# ------------------------------------------------------------- construction

def test_available_names():
    names = available()
    assert set(ALL_NAMES) <= set(names)
    assert {"case1", "case2", "case3"} <= set(names)


def test_case_defaults():
    sc = build("case1")
    assert sc.family == "example1"
    assert sc.omega_bif == 20.0 and sc.x0_norm == 2.0
    assert sc.r == 3.0
    assert abs(np.linalg.norm(sc.tip_x0) - 3.0) < 1e-12
    assert np.allclose(sc.X0, 2.0 * EZ)
    sc3 = build("case3")
    assert sc3.family == "example3"


def test_unknown_name_lists_available():
    with pytest.raises(ConfigError, match="case1"):
        build("examples")


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown override"):
        build("case1", lam=0.1)
    with pytest.raises(ConfigError, match="unknown override"):
        build("case1", theta0=0.5)  # the Euler chart's start, which nothing read
    with pytest.raises(ConfigError, match="unknown override"):
        build("case1", g=math.sin, gdot=math.cos)  # the waveform is sin((omega + lam) t)


def test_tip_seed_is_projected_to_sphere():
    sc = build("case1", tip_x0=(0.0, 0.0, 7.0), r=2.0)
    assert np.allclose(sc.tip_x0, [0.0, 0.0, 2.0], atol=1e-15)
    with pytest.raises(ConfigError):
        build("case1", tip_x0=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        build("case1", tip_x0=(np.inf, 0.0, 1.0))


def test_tip_seed_whose_norm_overflows_is_refused():
    # finite components, squared norm past the float range: the scale r / |tip| was 0
    with pytest.raises(ConfigError, match="tip_x0"):
        build("case1", tip_x0=[1e200, 0.0, 0.0])


@pytest.mark.parametrize("name, overrides, lam", [
    ("example4", {"x0_norm": 1e-200}, 0.01),  # |X0 + mu X1|^2 underflows: the frequency divided by 0
    ("example4", {"x0_norm": 1e-150, "k": 10**200}, 0.0),  # |X0| / k underflows: the period did
    ("example2", {"x0_norm": 1e-320, "omega_bif": 1e-320}, 0.0),  # sqrt(|X0|^2 + lambda) at 0
    ("example3", {"x0_norm": 1e-320, "omega_bif": 1e-320}, 0.0),
])
def test_a_norm_that_underflows_is_a_config_error(name, overrides, lam):
    sc = build(name, **overrides)
    for use in (sc.period, lambda lam: sc.forcing(lam).eval(0.0, lam), lambda lam: sc.closed_form(0.0, lam)):
        with pytest.raises(ConfigError, match=f"^scenario {name}: .* underflows to 0 at "):
            use(lam)


def test_a_subnormal_norm_that_does_not_underflow_keeps_its_period():
    # lambda > 0 keeps sqrt(|X0|^2 + lambda) off 0, and the period finite
    sc = build("example2", x0_norm=1e-320, omega_bif=1e-320)
    assert sc.period(1e-300) == 2.0 * math.pi / (1e-320 + 1e-300)


@pytest.mark.parametrize("name, overrides", [
    ("case1", {"omega_bif": 1e-320}),
    ("example1", {"x0_norm": 1e-320, "omega_bif": 1e-320}),
    ("example5", {"omega_bif": 1e-320}),
])
def test_a_period_that_overflows_is_a_config_error(name, overrides):
    # 2 pi / |omega + lambda| at a subnormal omega + lambda was inf, which the integrator refused
    sc = build(name, **overrides)
    with pytest.raises(
        ConfigError,
        match=fr"^scenario {name}: the period 2 pi / \|omega \+ lambda\| overflows at lambda 0\.0$",
    ):
        sc.period(0.0)
    assert sc.period(1e-300) == 2.0 * math.pi / (1e-320 + 1e-300)


def test_takes_mu_flag():
    assert build("example4").takes_mu
    assert not build("case1").takes_mu


# ------------------------------------------------------------------- frames

def test_frame_validation():
    Frame()  # defaults are consistent
    with pytest.raises(ConfigError):
        Frame(x0_dir=2.0 * EZ)
    with pytest.raises(ConfigError):
        Frame(x0_dir=EZ, x1=EZ, x2=EY)
    with pytest.raises(ConfigError):
        Frame(x0_dir=EZ, x1=EY, x2=EX)  # left-handed
    with pytest.raises(ConfigError, match="finite"):
        Frame(x0_dir=[0.0, math.nan, 1.0])


@pytest.mark.parametrize("row", [0, 1, 2])
def test_a_frame_row_off_the_unit_sphere_is_refused_by_name(row):
    # the unit-vector rule of so3 (to 1e-10), named by the row, through Frame and build
    name = ("x0_dir", "x1", "x2")[row]
    rows = [EZ, EX, EY]
    for scale in (1.0 + 2e-10, 1.0 - 2e-10):
        rows[row] = [EZ, EX, EY][row] * scale
        for make in (lambda: Frame(*rows), lambda: build("case1", frame=rows)):
            with pytest.raises(ConfigError, match=f"^frame vector {name}: {name} must be a unit vector"):
                make()
    rows[row] = [EZ, EX, EY][row] * (1.0 + 0.5e-10)  # within 1e-10 of the sphere
    assert getattr(build("case1", frame=rows).frame, name) == tuple(rows[row].tolist())


@pytest.mark.parametrize("row", [0, 1, 2])
def test_a_frame_row_off_the_unit_sphere_is_refused_with_its_norm(row):
    # numpy prints the row to 8 digits, as [0, 0, 1]; the message states the norm to 17
    name = ("x0_dir", "x1", "x2")[row]
    rows = [EZ, EX, EY]
    rows[row] = rows[row] * (1.0 + 2e-10)
    with pytest.raises(ConfigError) as refused:
        build("case1", frame=rows)
    assert str(refused.value) == (
        f"frame vector {name}: {name} must be a unit vector to within 1e-10, got norm 1.0000000002"
    )


def test_frame_override_as_rows():
    # a rotated but right-handed frame is accepted
    c, s = np.cos(0.3), np.sin(0.3)
    x1 = np.array([c, s, 0.0])
    x2 = np.array([-s, c, 0.0])
    sc = build("case1", frame=np.array([EZ, x1, x2]))
    assert np.allclose(sc.frame.x1, x1)
    with pytest.raises(ConfigError):
        build("case1", frame=np.eye(2))


# --------------------------------------------------------- resonance wiring

def test_one_to_one_families_require_matching_norms():
    with pytest.raises(ConfigError, match="1:1"):
        build("example2", x0_norm=10.0)
    sc = build("example2", x0_norm=10.0, omega_bif=10.0)
    assert sc.omega_bif == 10.0


def test_example4_omega_is_derived():
    assert build("example4").omega_bif == 20.0
    assert build("example4", k=2).omega_bif == 10.0
    with pytest.raises(ConfigError):
        build("example4", omega_bif=5.0)
    build("example4", omega_bif=20.0)  # consistent override passes


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"r": math.inf}, "finite"),
        ({"x0_norm": math.nan}, "finite"),
        ({"omega_bif": -1.0}, "omega_bif must be positive"),
        ({"r": 0.0}, "r must be positive"),
        ({"k": True}, "boolean"),
        ({"r": np.True_}, "boolean"),
        ({"tip_x0": [0.0, 1.0, False]}, "boolean"),
        ({"frame": [[0, 0, 1], (1, 0, 0), [0, 1, True]]}, "boolean"),
    ],
)
def test_override_values_must_be_finite_positive_numbers(overrides, message):
    with pytest.raises(ConfigError, match=message):
        build("case1", **overrides)


def test_k_restricted_to_example4():
    with pytest.raises(ConfigError):
        build("case1", k=2)
    with pytest.raises(ConfigError):
        build("example4", k=0)


# ----------------------------------------------------- forcing family shape

def test_forcing_at_criticality_is_primary_rotation():
    for name in ALL_NAMES:
        sc = build(name)
        sig = sc.forcing(0.0)
        for t in (0.0, 0.17, 1.3):
            assert np.allclose(sig.eval(t, 0.0), sc.X0, atol=1e-12), name
    # example4 at criticality still carries its mu tilt
    sc = build("example4")
    sig = sc.forcing(0.0, mu=0.07)
    assert np.allclose(sig.eval(0.9, 0.0), sc.X0 + 0.07 * EX, atol=1e-12)


def test_forcing_is_periodic():
    lam = 0.01
    for name in ALL_NAMES:
        sc = build(name)
        mu = 0.1 if sc.takes_mu else None
        sig = sc.forcing(lam, mu=mu)
        T = sig.period(lam)
        for t in (0.0, 0.3 * T, 0.8 * T):
            assert np.linalg.norm(np.asarray(sig.eval(t + T, lam)) - sig.eval(t, lam)) < 1e-10, name


def test_negative_lambda_rejected_at_eval():
    sig = build("case1").forcing(0.01)
    with pytest.raises(DomainError):
        sig.eval(0.0, -0.01)


def test_mu_rejected_outside_example4():
    with pytest.raises(ConfigError, match="^scenario 'case1' takes no mu parameter$"):
        build("case1").forcing(0.01, mu=0.1)
    with pytest.raises(ConfigError, match="^scenario 'example5' takes no mu parameter$"):
        build("example5").period(0.01, mu=np.array(0.1))


@pytest.mark.parametrize("mu", [True, np.True_, "0.1", math.nan])
def test_mu_that_is_no_finite_number_is_refused(mu):
    rule = "finite" if mu is math.nan else "a real number, not a boolean or a string"
    for call in (build("example4").forcing, build("example4").period):
        with pytest.raises(ConfigError, match=f"^mu must be {rule}, got "):
            call(0.01, mu)


def test_mu_builds_its_pieces_once_per_value(monkeypatch):
    # any number is keyed by its float: a 0-d array, a numpy scalar and the
    # float itself share one build; a new mu replaces it
    built = []
    build_pieces = Scenario._build_pieces

    def counted(sc, mu):
        built.append(mu)
        return build_pieces(sc, mu)

    monkeypatch.setattr(Scenario, "_build_pieces", counted)
    sc = build("example4")
    periods = {sc.period(0.05, mu) for mu in (np.array(0.1), np.array(0.1), np.float64(0.1), 0.1)}
    assert built == [0.1] and type(built[0]) is float and len(periods) == 1
    sc.forcing(0.05, 0.2)
    sc.closed_form(0.3, 0.05, np.array(0.1))
    assert built == [0.1, 0.2, 0.1]


def test_forcing_family_is_the_bound_forcing(monkeypatch):
    # the drift finder calls Scenario.forcing with no layer between, and sees a patched one
    sc = build("example4")
    assert sc.forcing_family == sc.forcing
    assert sc.forcing_family(0.05, 0.1).eval(0.3, 0.05) == sc.forcing(0.05, 0.1).eval(0.3, 0.05)
    patched = lambda self, lam=0.0, mu=None: (lam, mu)
    monkeypatch.setattr(Scenario, "forcing", patched)
    assert sc.forcing_family.__func__ is patched and sc.forcing_family(0.05, 0.1) == (0.05, 0.1)


# ----------------------------------------------------------- closed forms

def test_closed_form_starts_at_identity():
    for name in ALL_NAMES:
        sc = build(name)
        mu = 0.05 if sc.takes_mu else None
        assert np.linalg.norm(sc.closed_form(0.0, 0.01, mu) - np.eye(3)) < 1e-14, name


def test_closed_form_satisfies_group_ode():
    lam = 0.01
    for name in ALL_NAMES:
        sc = build(name)
        mu = 0.1 if sc.takes_mu else None
        T = sc.period(lam, mu)
        for t in (0.37 * T, 1.2 * T):
            assert ode_residual(sc, t, lam, mu) < 1e-10, name


def test_integrator_matches_closed_form():
    assert verify_against_closed_form(build("example1"), 0.01) < 1e-7
    assert verify_against_closed_form(build("example4"), 0.01, mu=0.1) < 1e-7


# ------------------------------------------------------------ shape records

#: the shape of each family's forcing and closed form
SHAPE_OF = {"example1": "conjugated", "example2": "conjugated", "example3": "conjugated",
            "example4": "conjugated", "example5": "collinear"}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_family_unpacks_into_its_shapes_one_layout(name):
    # lookup(lam) returns the layout that the forcing, its fused right-hand side and the
    # closed form all unpack: float(lam), freq = omega_eff + lam and eps = sqrt(lam) first
    sc, mu = build(name), (0.1 if name == "example4" else None)
    lookup = inspect.getclosurevars(sc._pieces(mu)[2]).nonlocals["lookup"]
    layout = _SHAPES[SHAPE_OF[name]][0]
    for lam in (0.0, 1e-4, 0.05):
        got = {}
        exec(f"{layout} = lookup(lam)", {"lookup": lookup, "lam": lam}, got)
        assert (got["lam"], got["eps"]) == (lam, math.sqrt(lam))
        assert 2.0 * math.pi / abs(got["freq"]) == sc.period(lam, mu)
        nu_none = name == "example1"
        assert all(type(v) is float or (k == "nu" and nu_none and v is None) for k, v in got.items())


# ------------------------------------------ bitwise guard on the closures

def _exp_apply(v, w):
    """``exp_rot(v) @ w`` by the vector Rodrigues formula, composed as the library once did."""
    return oracles.quadratic_apply_composed(v, w, *oracles.exp_coeffs_composed(oracles.norm3_composed(v)))


def float_product(a, b):
    """``a @ b`` of two 3x3 ndarrays, each entry's row-by-column terms summed left to right on Python floats."""
    a, b = a.tolist(), b.tolist()
    return np.array(
        [[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)] for i in range(3)]
    )


def reference_pieces(sc, mu=None, product=float_product, exp=exp_rot):
    """(xg, closed) recomputing every constant on each call: the forcings
    as float lists with the vector Rodrigues rotation, the closed forms with
    numpy vectors and exp_rot, each float operation in the order the
    formulas of the module docstring take, and the two exp_rot factors (``exp``)
    multiplied by ``product``. The library's closures, which compute the
    lambda-only constants once per lambda, must give the bits of the
    default product, the row-by-column float sum."""
    # the frame's float triples as numpy vectors
    fr = types.SimpleNamespace(**{k: np.array(v) for k, v in vars(sc.frame).items()})
    X0 = np.array(sc.X0)
    X0_l, x1_l, x2_l = X0.tolist(), fr.x1.tolist(), fr.x2.tolist()
    omega_eff = sc.omega_bif
    if sc.family == "example4":
        mu_val = 0.0 if mu is None else float(mu)
        norm_c = math.sqrt(sc.x0_norm**2 + mu_val**2)
        omega_eff = norm_c / sc.k

    def g(t, lam):
        return math.sin((omega_eff + lam) * t)

    def gdot(t, lam):
        return (omega_eff + lam) * math.cos((omega_eff + lam) * t)

    if sc.family == "example1":
        pdir = 2.0 * (fr.x1 + fr.x2 + fr.x0_dir)

        def xg(t, lam):
            eps = math.sqrt(lam)
            P = [eps * p for p in pdir.tolist()]
            rate, phase = gdot(t, lam), g(t, lam)
            r = _exp_apply([-(p * phase) for p in P], [a + eps * b for a, b in zip(X0_l, x1_l)])
            return [p * rate + ri for p, ri in zip(P, r)]

        def closed(t, lam):
            eps = math.sqrt(lam)
            return product(exp((X0 + eps * fr.x1) * t), exp(eps * pdir * g(t, lam)))

    elif sc.family in ("example2", "example3"):
        def parts(lam):
            eps = math.sqrt(lam)
            nu = abs(sc.omega_bif + lam) / math.sqrt(sc.x0_norm**2 + lam)
            w = eps * fr.x1 if sc.family == "example2" else eps * (X0 + fr.x1)
            return X0 + eps * fr.x2, nu, w

        def xg(t, lam):
            C, nu, w = parts(lam)
            theta = nu * t + lam * g(t, lam)
            rate = nu + lam * gdot(t, lam)
            r = _exp_apply([-(c * theta) for c in C.tolist()], w.tolist())
            return [c * rate + ri for c, ri in zip(C.tolist(), r)]

        def closed(t, lam):
            C, nu, w = parts(lam)
            return product(exp(w * t), exp(C * (nu * t + lam * g(t, lam))))

    elif sc.family == "example4":
        C = X0 + mu_val * fr.x1

        def parts(lam):
            eps = math.sqrt(lam)
            nu = sc.k * abs(omega_eff + lam) / norm_c
            return eps, nu, (eps - mu_val) * X0 + fr.x1 + fr.x2

        def xg(t, lam):
            eps, nu, w = parts(lam)
            theta = nu * t + lam * g(t, lam)
            rate = nu + lam * gdot(t, lam)
            amp = eps**sc.k
            r = _exp_apply([-(c * theta) for c in C.tolist()], w.tolist())
            return [c * rate + amp * ri for c, ri in zip(C.tolist(), r)]

        def closed(t, lam):
            eps, nu, w = parts(lam)
            return product(exp(eps**sc.k * w * t), exp(C * (nu * t + lam * g(t, lam))))

    else:
        def xg(t, lam):
            eps = math.sqrt(lam)
            rate = 1.0 + eps * gdot(t, lam)
            return [(a + eps * b) * rate for a, b in zip(X0_l, x1_l)]

        def closed(t, lam):
            eps = math.sqrt(lam)
            return exp((X0 + eps * fr.x1) * (t + eps * g(t, lam)))

    return xg, closed


GUARD_LAMBDAS = (0.0, -0.0, 1e-4, 0.05, 0.1)


#: x0_dir with a negative zero: X0 + eps X1 keeps the sign of eps = sqrt(-0.0)
SIGNED_ZERO_FRAME = Frame(np.array([-0.0, 0.0, 1.0]), EX, EY)


def guard_cases():
    for name in ALL_NAMES:
        mus = (None, 0.0, 0.1, 0.3) if name == "example4" else (None,)
        for mu in mus:
            yield build(name), mu
        yield build(name, frame=SIGNED_ZERO_FRAME), None


def assert_bitwise(sc, mu, t, lam, ref_xg, ref_closed, sig):
    got = np.asarray(sig.eval(t, lam), dtype=float)
    want = np.asarray(ref_xg(t, lam), dtype=float)
    assert got.tobytes() == want.tobytes(), (sc.name, mu, t, lam, got, want)
    got = sc.closed_form(t, lam, mu)
    want = ref_closed(t, lam)
    assert got.tobytes() == want.tobytes(), (sc.name, mu, t, lam, got, want)


def test_closures_are_bitwise_the_numpy_formulas():
    """Forcings and closed forms equal the numpy formulas byte for byte, for
    every lambda in turn and with lambda alternating between evaluations,
    so the last-lambda memo never serves another lambda's constants."""
    ts = np.linspace(0.0, 3.0, 50).tolist()
    for sc, mu in guard_cases():
        ref_xg, ref_closed = reference_pieces(sc, mu)
        sig = sc.forcing(0.05, mu)
        for lam in GUARD_LAMBDAS:
            for t in ts:
                assert_bitwise(sc, mu, t, lam, ref_xg, ref_closed, sig)
        for i, t in enumerate(ts):
            # equal lambdas in fresh objects, and 0.0 next to -0.0
            for lam in (GUARD_LAMBDAS[i % 5], float(repr(GUARD_LAMBDAS[(i + 2) % 5])), -0.0, 0.0):
                assert_bitwise(sc, mu, t, lam, ref_xg, ref_closed, sig)


def test_closed_form_is_within_4_ulp_of_numpy_matmul():
    # the float-order product differs from numpy's `@` of the same exp_rot
    # factors by rounding alone: no entry by more than 4 ulp of |A|_F
    ts = np.linspace(0.0, 3.0, 50).tolist()
    worst = 0.0
    for sc, mu in guard_cases():
        ref_closed = reference_pieces(sc, mu, product=operator.matmul)[1]
        for lam in GUARD_LAMBDAS:
            for t in ts:
                got, want = sc.closed_form(t, lam, mu), ref_closed(t, lam)
                worst = max(worst, np.abs(got - want).max() / (np.spacing(1.0) * np.linalg.norm(want)))
    assert worst <= 4.0


def composed_exp(v):
    """``exp_rot(v)`` through the Rodrigues helpers as the library once composed them; ValueError
    where the library raises DomainError (a non-finite angle)."""
    return np.array(oracles.exp_entries_composed(v.tolist())).reshape(3, 3)


#: t = 0, times at which each factor of every closed form crosses the series switch, and times
#: at which one factor's angle (1e154: the second only, on case2-3) or both overflow
SWITCH_TIMES = [0.0, *np.geomspace(1e-9, 1e-2, 43).tolist(), 0.7, 1e154, 1e200]


def test_generated_closed_forms_are_bitwise_the_composed_helpers():
    for sc, mu in guard_cases():
        ref_closed = reference_pieces(sc, mu, exp=composed_exp)[1]
        for lam in GUARD_LAMBDAS:
            for t in SWITCH_TIMES:
                try:
                    want = ref_closed(t, lam)
                except ValueError:
                    with pytest.raises(DomainError, match="^expected a finite 3-vector$"):
                        sc.closed_form(t, lam, mu)
                else:
                    got = sc.closed_form(t, lam, mu)
                    assert got.tobytes() == want.tobytes(), (sc.name, mu, t, lam, got, want)


@pytest.mark.parametrize("t", [1e300, 1e307, 1e308, -1e308])
@pytest.mark.parametrize("name", ["case2", "example5"])
def test_closed_form_refuses_an_overflowing_phase_with_domain_error(name, t):
    # at 1e300 a factor's angle overflows; from 1e307 on the phase (omega_eff + lam) t itself does,
    # which math's sin refuses: both shapes raise the one DomainError, never math's ValueError
    with pytest.raises(DomainError, match="^expected a finite 3-vector$"):
        build(name).closed_form(t, 0.01)


def test_closed_form_reaches_the_closed_form_of_its_last_mu(monkeypatch):
    # the very None or float object of the last call reaches the kept closed form; any other
    # mu, a 0-d array included, asks _pieces, which checks it
    sc = build("example4")
    mu = 0.1
    want = sc.closed_form(0.3, 0.05, mu)
    sc.forcing(0.05, 0.2)  # _pieces now holds mu = 0.2 only
    asked = []
    pieces = Scenario._pieces
    monkeypatch.setattr(Scenario, "_pieces", lambda s, m: asked.append(m) or pieces(s, m))
    assert sc.closed_form(0.3, 0.05, mu).tobytes() == want.tobytes() and asked == []
    assert sc.closed_form(0.3, 0.05, np.array(0.1)).tobytes() == want.tobytes() and len(asked) == 1
    assert sc.closed_form(0.3, 0.05).tobytes() == sc.closed_form(0.3, 0.05).tobytes()
    assert asked[1:] == [None]
    with pytest.raises(ConfigError):
        build("case2").closed_form(0.3, 0.05, 0.1)


def test_negative_zero_lambda_keeps_its_sign():
    # 0.0 and -0.0 compare equal but must not share the memo's constants
    sig = build("example5", frame=SIGNED_ZERO_FRAME).forcing(0.0)
    for _ in range(3):
        assert math.copysign(1.0, sig.eval(0.3, 0.0)[0]) == 1.0
        assert math.copysign(1.0, sig.eval(0.3, -0.0)[0]) == -1.0


def test_negative_lambda_raises_on_every_call():
    for sc, mu in guard_cases():
        sig = sc.forcing(0.05, mu)
        for _ in range(3):
            sig.eval(0.1, 0.05)
            with pytest.raises(DomainError):
                sig.eval(0.1, -0.1)
            with pytest.raises(DomainError):
                sc.closed_form(0.1, -0.1, mu)


def test_period_rejects_negative_lambda():
    # case1 at lambda = -20 would divide by |omega_bif + lambda| = 0
    for sc, mu in guard_cases():
        for _ in range(3):
            assert sc.period(0.05, mu) > 0.0
            for lam in (-0.1, -20.0, math.nan, math.inf):
                with pytest.raises(DomainError):
                    sc.period(lam, mu)
