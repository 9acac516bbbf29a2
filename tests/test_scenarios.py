"""Forcing families: construction, validation, closed forms vs the group ODE."""
import math

import numpy as np
import pytest

from rotwave import ConfigError, DomainError, exp_rot, hat
from rotwave.scenarios import Frame, available, build, verify_against_closed_form
from rotwave.so3 import _exp_apply

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
    assert sc.r == 3.0 and sc.theta0 == 0.01
    assert abs(np.linalg.norm(sc.tip_x0) - 3.0) < 1e-12
    assert np.allclose(sc.X0, 2.0 * EZ)
    sc3 = build("case3")
    assert sc3.family == "example3" and sc3.theta0 == 0.5


def test_unknown_name_lists_available():
    with pytest.raises(ConfigError, match="case1"):
        build("examples")


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown override"):
        build("case1", lam=0.1)


def test_tip_seed_is_projected_to_sphere():
    sc = build("case1", tip_x0=(0.0, 0.0, 7.0), r=2.0)
    assert np.allclose(sc.tip_x0, [0.0, 0.0, 2.0], atol=1e-15)
    with pytest.raises(ConfigError):
        build("case1", tip_x0=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        build("case1", tip_x0=(np.inf, 0.0, 1.0))


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


def test_k_restricted_to_example4():
    with pytest.raises(ConfigError):
        build("case1", k=2)
    with pytest.raises(ConfigError):
        build("example4", k=0)


# ------------------------------------------------------------ g overrides

def test_g_and_gdot_must_pair():
    with pytest.raises(ConfigError):
        build("case1", g=lambda t, lam: np.sin(t))
    with pytest.raises(ConfigError, match="g\\(0"):
        build("case1", g=lambda t, lam: np.cos(t), gdot=lambda t, lam: -np.sin(t))
    sc = build(
        "case1",
        g=lambda t, lam: np.sin(2.0 * t),
        gdot=lambda t, lam: 2.0 * np.cos(2.0 * t),
    )
    assert verify_against_closed_form(sc, 0.01, t_grid=np.linspace(0.0, 0.5, 51)) < 1e-7


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
    with pytest.raises(ConfigError):
        build("case1").forcing(0.01, mu=0.1)


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


# ------------------------------------------ bitwise guard on the closures

def reference_pieces(sc, mu=None):
    """(xg, closed) recomputing every constant on each call: the forcings
    as float lists with the vector Rodrigues rotation, the closed forms with
    numpy vectors and exp_rot, each float operation in the order the
    formulas of the module docstring take. The library's closures, which
    compute the lambda-only constants once per lambda, must give the same
    bits."""
    fr = sc.frame
    X0 = sc.X0
    X0_l, x1_l, x2_l = X0.tolist(), fr.x1.tolist(), fr.x2.tolist()
    omega_eff = sc.omega_bif
    if sc.family == "example4":
        mu_val = 0.0 if mu is None else float(mu)
        norm_c = math.sqrt(sc.x0_norm**2 + mu_val**2)
        omega_eff = norm_c / sc.k
    if sc.g_override is not None:
        g, gdot = sc.g_override, sc.gdot_override
    else:
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
            return exp_rot((X0 + eps * fr.x1) * t) @ exp_rot(eps * pdir * g(t, lam))

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
            return exp_rot(w * t) @ exp_rot(C * (nu * t + lam * g(t, lam)))

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
            return exp_rot(eps**sc.k * w * t) @ exp_rot(C * (nu * t + lam * g(t, lam)))

    else:
        def xg(t, lam):
            eps = math.sqrt(lam)
            rate = 1.0 + eps * gdot(t, lam)
            return [(a + eps * b) * rate for a, b in zip(X0_l, x1_l)]

        def closed(t, lam):
            eps = math.sqrt(lam)
            return exp_rot((X0 + eps * fr.x1) * (t + eps * g(t, lam)))

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
    yield build(
        "case1", g=lambda t, lam: np.sin(2.0 * t), gdot=lambda t, lam: 2.0 * np.cos(2.0 * t)
    ), None


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
