"""Algebra primitives: hat/vee, exp/log, hemisphere map, dexp operators."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rotwave import (
    BallClass,
    DomainError,
    SingularityError,
    as_rotation,
    dexp_op,
    dexpinv_op,
    exp_rot,
    hat,
    log_rot,
    q_map,
    rot_x,
    rot_z,
    vee,
)
from rotwave.so3 import SERIES_RADIUS, _dexpinv_apply, _dexpinv_c2, _exp_apply

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

L_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


vec3 = st.builds(
    lambda a, b, c: np.array([a, b, c]),
    *(st.floats(-3.0, 3.0) for _ in range(3)),
)


# ------------------------------------------------------------------ hat / vee

def test_hat_ez_is_lz():
    assert np.array_equal(hat(EZ), L_Z)


def test_vee_round_trip():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vee(hat(v)), v)


def test_hat_commutator_is_cross_product():
    a, b = EX, EY
    comm = hat(a) @ hat(b) - hat(b) @ hat(a)
    assert np.allclose(vee(comm), np.cross(a, b), atol=1e-15)


def test_vee_rejects_non_skew():
    with pytest.raises(DomainError):
        vee(np.eye(3))


@given(vec3)
def test_hat_is_skew(v):
    assert np.allclose(hat(v) + hat(v).T, 0.0, atol=0.0)


@given(vec3, vec3)
def test_hat_commutator_property(a, b):
    comm = hat(a) @ hat(b) - hat(b) @ hat(a)
    assert np.allclose(vee(comm), np.cross(a, b), atol=1e-12)


def test_hat_power_identities():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        k = hat(v)
        n2 = float(v @ v)
        assert np.allclose(k @ k @ k, -n2 * k, atol=1e-12 * max(1.0, n2**1.5))
        assert np.allclose(k @ k @ k @ k, -n2 * (k @ k), atol=1e-12 * max(1.0, n2**2))


def test_conjugation_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.normal(size=3)
        a = exp_rot(rng.normal(size=3))
        assert np.allclose(vee(a @ hat(v) @ a.T), a @ v, atol=1e-12)


# ------------------------------------------------------------------- exp_rot

def test_exp_zero_is_identity():
    assert np.array_equal(exp_rot(np.zeros(3)), np.eye(3))


def test_exp_quarter_turn_about_z():
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(exp_rot([0.0, 0.0, np.pi / 2]), want, atol=1e-15)


def test_exp_half_turn_closed_form():
    n = unit([1.0, 1.0, 1.0])
    want = 2.0 * np.outer(n, n) - np.eye(3)
    assert np.allclose(exp_rot(np.pi * n), want, atol=1e-15)


def test_exp_identity_iff_norm_in_two_pi_lattice():
    for norm in (0.0, 2 * np.pi, 4 * np.pi):
        v = norm * unit([2.0, -1.0, 0.5])
        assert np.linalg.norm(exp_rot(v) - np.eye(3)) < 1e-12
    for norm in (np.pi, 1.0, 5.0):
        v = norm * unit([2.0, -1.0, 0.5])
        assert np.linalg.norm(exp_rot(v) - np.eye(3)) > 0.1


def test_exp_matches_quaternion_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=3) * rng.uniform(0.0, 3 * np.pi)
        assert np.allclose(exp_rot(v), oracles.rotation_oracle(v), atol=1e-13)


def test_exp_series_matches_closed_form_at_switch():
    # both evaluation paths must agree across the series boundary
    for norm in (SERIES_RADIUS * 0.5, SERIES_RADIUS * 0.999, SERIES_RADIUS * 1.001):
        v = norm * unit([1.0, -2.0, 0.3])
        assert np.allclose(exp_rot(v), oracles.rotation_oracle(v), atol=1e-15)


@given(vec3)
def test_exp_lands_in_rotation_group(v):
    r = exp_rot(v)
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


# ------------------------------------------------------------------- log_rot

def test_log_identity():
    assert log_rot(np.eye(3)) == BallClass(np.zeros(3))


def test_log_quarter_turn():
    cls = log_rot(rot_z(np.pi / 2))
    assert np.allclose(cls.vector, [0.0, 0.0, np.pi / 2], atol=1e-15)


def test_log_half_turn_antipodal_class():
    cls = log_rot(np.diag([1.0, -1.0, -1.0]))
    assert cls.isclose(BallClass([np.pi, 0.0, 0.0]), tol=1e-12)
    assert cls.isclose(BallClass([-np.pi, 0.0, 0.0]), tol=1e-12)


def test_log_exp_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(300):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, np.pi - 1e-3) / np.linalg.norm(v)
        assert np.linalg.norm(log_rot(exp_rot(v)).vector - v) < 1e-10


def test_exp_log_round_trip_on_random_rotations():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        r = oracles.rotation_oracle(rng.normal(size=3) * rng.uniform(0.0, 4.0))
        assert np.linalg.norm(exp_rot(log_rot(r).vector) - r) < 1e-10


def test_log_near_half_turn():
    # angles above pi - 1e-6 take the symmetric-part branch and round-trip
    # tightly; just below, the vee branch's axis comes from a vector of norm
    # sin(theta), so its conditioning is eps/sin(theta) and the achievable
    # round trip loosens accordingly
    rng = np.random.default_rng(8)
    for gap, tol in ((0.0, 1e-10), (1e-12, 1e-10), (1e-9, 1e-10), (1e-7, 1e-10),
                     (1e-5, 1e-8), (1e-4, 1e-9)):
        n = unit(rng.normal(size=3))
        r = oracles.rotation_oracle((np.pi - gap) * n)
        cls = log_rot(r)
        assert np.linalg.norm(exp_rot(cls.vector) - r) < tol


def test_as_rotation_repairs_small_drift():
    r = rot_x(0.7)
    drifted = r + 1e-6 * np.ones((3, 3))
    fixed = as_rotation(drifted)
    assert np.allclose(fixed.T @ fixed, np.eye(3), atol=1e-14)
    assert np.linalg.norm(fixed - r) < 1e-5


def test_as_rotation_rejects_garbage():
    with pytest.raises(DomainError):
        as_rotation(np.ones((3, 3)))


# ----------------------------------------------------------------- BallClass

def test_ball_class_norm_guard():
    BallClass((np.pi + 5e-13) * EZ)  # snaps
    with pytest.raises(DomainError):
        BallClass((np.pi + 1e-9) * EZ)


def test_ball_class_antipodal_equality():
    u = BallClass(np.pi * unit([1.0, 2.0, 2.0]))
    w = BallClass(-np.pi * unit([1.0, 2.0, 2.0]))
    assert u == w
    assert u.isclose(w, tol=1e-15)
    assert BallClass(0.5 * EZ) != BallClass(-0.5 * EZ)


def test_ball_class_angle_axis():
    aa = BallClass([0.0, 0.0, 0.5]).angle_axis()
    assert aa.angle == 0.5
    assert np.allclose(aa.axis, EZ)


# --------------------------------------------------------------------- q_map

def test_q_map_same_hemisphere_unchanged():
    out = q_map(BallClass([0.0, 0.0, 0.5]), EZ)
    assert np.array_equal(out, [0.0, 0.0, 0.5])


def test_q_map_opposite_hemisphere_rewraps():
    # (-2*pi/|Y| + 1) * Y at Y = (0,0,-pi/2) gives (0,0,3*pi/2)
    out = q_map(BallClass([0.0, 0.0, -np.pi / 2]), EZ)
    assert np.allclose(out, [0.0, 0.0, 3 * np.pi / 2], atol=1e-15)


def test_q_map_zero_class():
    assert np.array_equal(q_map(BallClass(np.zeros(3)), EZ), np.zeros(3))


def test_q_map_preserves_rotation():
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, np.pi) / np.linalg.norm(v)
        cls = BallClass(v)
        ref = unit(rng.normal(size=3))
        out = q_map(cls, ref)
        assert np.linalg.norm(exp_rot(out) - exp_rot(v)) < 1e-12


def test_q_map_requires_unit_ref():
    with pytest.raises(DomainError):
        q_map(BallClass([0.0, 0.0, 0.5]), 2.0 * EZ)


# ------------------------------------------------------------- dexp, dexpinv

def test_dexp_limits_at_zero():
    assert np.array_equal(dexp_op(np.zeros(3)), np.eye(3))
    assert np.array_equal(dexpinv_op(np.zeros(3)), np.eye(3))


def test_dexpinv_inverts_dexp_random_unit():
    rng = np.random.default_rng(10)
    for _ in range(50):
        z = unit(rng.normal(size=3))
        assert np.linalg.norm(dexpinv_op(z) @ dexp_op(z) - np.eye(3)) < 1e-12


def test_dexp_coefficient_series_path():
    # extended-precision reference vs the library on both sides of the series
    # switch; just above the switch the closed form carries a cancellation
    # error of order eps/theta^2 in the quadratic coefficient, which appears
    # in the operator damped by |hat|^2 ~ theta^2 (net ~eps/theta * theta)
    for theta in (1e-8, 1e-6, 1e-5, SERIES_RADIUS * 0.999):
        ca_ref, cb_ref = oracles.dexp_coeffs_ref(theta)
        k = hat(theta * EZ)
        ref = np.eye(3) + ca_ref * k + cb_ref * (k @ k)
        assert np.linalg.norm(dexp_op(theta * EZ) - ref) < 1e-15
    for theta in (SERIES_RADIUS * 1.001, 1e-3, 0.1, 1.0):
        ca_ref, cb_ref = oracles.dexp_coeffs_ref(theta)
        k = hat(theta * EZ)
        ref = np.eye(3) + ca_ref * k + cb_ref * (k @ k)
        assert np.linalg.norm(dexp_op(theta * EZ) - ref) < 1e-11


def test_dexpinv_c2_series_and_closed_form():
    # c2 -> 1/12 at zero; series matches the Taylor oracle; above the switch
    # the closed form's value wobbles like eps/theta^2 (harmless: the operator
    # multiplies it by theta^2), so the value bar scales accordingly
    assert abs(_dexpinv_c2(1e-6) - 1.0 / 12.0) < 1e-9
    for theta in (1e-8, 1e-5, 5e-5, 1e-4, 5e-4, 0.01, 0.1):
        tol = 1e-15 if theta < SERIES_RADIUS else max(1e-15, 1e-15 / theta**2)
        assert abs(_dexpinv_c2(theta) - oracles.c2_series_ref(theta)) < tol
    for theta in (0.5, 1.0, 2.0, 3.0, 5.0):
        assert abs(_dexpinv_c2(theta) - oracles.c2_ref(theta)) < 1e-14


def test_dexpinv_singularity_guard():
    dexpinv_op((2 * np.pi - 1e-3) * EZ)
    with pytest.raises(SingularityError):
        dexpinv_op((2 * np.pi - 1e-7) * EZ)
    with pytest.raises(SingularityError):
        dexpinv_op(2 * np.pi * EZ)


def test_vector_dexpinv_matches_matrix():
    # the scalar right-hand-side kernel against the public matrix, on both
    # sides of the series switch and up to 1e-3 short of the singularity;
    # relative to |dexpinv_op(z)|_2 |x|, the scale of a matrix-vector
    # product's rounding (near 2 pi the hat^2 term cancels against the rest)
    rng = np.random.default_rng(12)
    dirs = oracles.random_axis_vectors(rng, 3000, 1.0)
    norms = np.concatenate([
        rng.uniform(1e-8, SERIES_RADIUS, size=1000),
        rng.uniform(SERIES_RADIUS, 1e-3, size=1000),
        rng.uniform(1e-3, 2 * np.pi - 1e-3, size=999),
        [2 * np.pi - 1e-3],
    ])
    for d, n in zip(dirs, norms):
        z = n * unit(d)
        x = rng.normal(size=3)
        m = dexpinv_op(z)
        got = np.array(_dexpinv_apply(z.tolist(), x.tolist()))
        scale = np.linalg.norm(m, 2) * np.linalg.norm(x)
        assert np.linalg.norm(got - m @ x) <= 1e-15 * scale


def test_vector_dexpinv_singularity_guard_matches_matrix():
    x = [0.3, -0.1, 0.2]
    _dexpinv_apply(((2 * np.pi - 1e-3) * EZ).tolist(), x)
    for n in (2 * np.pi - 1e-7, 2 * np.pi, 7.0):
        z = n * unit([1.0, 2.0, -0.5])
        with pytest.raises(SingularityError):
            dexpinv_op(z)
        with pytest.raises(SingularityError):
            _dexpinv_apply(z.tolist(), x)


def test_vector_rodrigues_matches_matrix():
    rng = np.random.default_rng(13)
    vs = np.concatenate([
        oracles.random_axis_vectors(rng, 2000, 3 * np.pi),
        oracles.random_axis_vectors(rng, 200, 2 * SERIES_RADIUS),
    ])
    for v in vs:
        w = rng.normal(size=3)
        got = np.array(_exp_apply(v.tolist(), w.tolist()))
        assert np.linalg.norm(got - exp_rot(v) @ w) <= 1e-15 * np.linalg.norm(w)


def test_dexp_derivative_property():
    # dexp is the actual differential: d/dt exp(z(t)) = exp(z) hat(dexp(z) zdot),
    # checked against a central difference along straight paths z(t) = z0 + t*w
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        z0 = rng.normal(size=3)
        z0 *= rng.uniform(0.2, 2.0) / np.linalg.norm(z0)
        w = rng.normal(size=3)
        fd = (exp_rot(z0 + h * w) - exp_rot(z0 - h * w)) / (2 * h)
        body = exp_rot(z0).T @ fd
        assert np.linalg.norm(body - hat(dexp_op(z0) @ w)) < 1e-8
