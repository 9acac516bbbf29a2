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
    bch,
    bch_breakdown,
    dexp_op,
    dexpinv_op,
    exp_rot,
    hat,
    hemisphere_sign,
    log_rot,
    q_map,
    rot_x,
    rot_z,
    vee,
)
from rotwave.so3 import (
    _BALL_SLACK,
    _EXP_APPLY,
    SERIES_RADIUS,
    _ball_vector,
    _dexpinv_kernels,
    _dot3,
    _dot_columns,
    _exp_coeffs_arrays,
    _exp_entries,
    _exp_entries_arrays,
    _generated,
    _indented,
    _matmul3,
    _q_map_arrays,
    _quadratic_entries,
    _exp_coeffs,
    _northern,
    _q_map,
)

#: the Rodrigues fragment as a function of two float triples, and the dexpinv kernels
_exp_apply = _generated(
    "def exp_apply(v, w):\n    v0, v1, v2 = v\n    w0, w1, w2 = w\n"
    + _indented(_EXP_APPLY, 1) + "    return r0, r1, r2\n",
    "<exp_apply>",
)["exp_apply"]
_dexpinv_c2, _dexpinv_apply = _dexpinv_kernels()

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


@pytest.mark.parametrize(
    "call",
    [
        lambda: vee(np.zeros((2, 2))),
        lambda: hat([1.0, 2.0]),
        lambda: hat([math.nan, 0.0, 0.0]),
        lambda: exp_rot([0.0, math.inf, 0.0]),
        lambda: as_rotation(np.eye(2)),
        lambda: as_rotation(np.full((3, 3), math.nan)),
        lambda: BallClass(np.zeros(4)),
    ],
)
def test_shape_and_finiteness_checks(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [exp_rot, dexp_op, lambda v: bch(v, EZ), lambda v: bch_breakdown(EZ, v)],
    ids=["exp_rot", "dexp_op", "bch", "bch_breakdown"],
)
def test_vectors_whose_squared_norm_overflows_are_refused(call):
    # finite components; these raised math's "math domain error" ValueError
    with pytest.raises(DomainError, match="finite norm"):
        call([1e200, 1e200, 0.0])


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


@pytest.mark.parametrize("gap", [0.0, 1e-7])
def test_log_near_half_turn_flips_the_extracted_axis(gap):
    # the rank-one extraction returns the axis with its dominant component
    # positive; here that is -n. Below pi the skew part's sign flips it back
    # to n; at pi exactly the canonical representative (first nonzero
    # component positive) is n as well
    n = unit([1.0, -3.0, 2.0])
    cls = log_rot(oracles.rotation_oracle((np.pi - gap) * n))
    assert np.linalg.norm(cls.vector - (np.pi - gap) * n) < 1e-9


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


def test_ball_class_equality_and_repr():
    cls = BallClass([0.0, 0.0, 0.5])
    assert cls != 3
    assert not cls == (0.0, 0.0, 0.5)
    assert repr(cls) == "BallClass([0.  0.  0.5])"


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


# Unit vectors on the equator of each reference, as (u, northern): +y wins,
# then -x, then +z.
EQUATOR_CASES = [
    (EX, EZ, False),
    (-EX, EZ, True),
    (EY, EZ, True),
    (unit([-1.0, 1e-10, 0.0]), EZ, True),
    (EZ, EX, True),
    (unit([0.0, -1.0, 1.0]), EX, False),
    (-EX, EY, True),
    (EZ, EY, True),
    (-EZ, EY, False),
    (unit([1.0, 0.0, 1.0]), unit([1.0, 0.0, -1.0]), False),
    (unit([-1.0, 0.0, -1.0]), unit([1.0, 0.0, -1.0]), True),
]


@pytest.mark.parametrize("u, ref, north", EQUATOR_CASES)
def test_northern_breaks_equator_ties_by_fixed_axes(u, ref, north):
    c = float(u @ ref)
    assert abs(c) <= 1e-9
    assert _northern(u, c) == north
    assert _northern(-u, float(-u @ ref)) != north
    assert hemisphere_sign(u, ref) == (1.0 if north else -1.0)


def test_hemisphere_sign_takes_sequences_and_checks_that_u_is_unit():
    assert hemisphere_sign([0, 0, 1], [0, 0, 1]) == 1.0
    with pytest.raises(DomainError, match="hemisphere_sign's u must be a unit vector"):
        hemisphere_sign([0.0, 0.0, 2.0], EZ)
    with pytest.raises(DomainError, match="finite"):
        hemisphere_sign([math.nan, 0.0, 1.0], EZ)


def test_northern_off_the_equator_follows_the_sign_of_c():
    u = unit([1.0, 0.0, 2e-9])
    assert _northern(u, float(u @ EZ))
    assert not _northern(-u, float(-u @ EZ))
    # inside the old 1e-6 band a clearly negative c is -1
    assert hemisphere_sign(unit([1.0, 0.0, -1e-7]), EZ) == -1.0


@pytest.mark.parametrize("u, ref, north", EQUATOR_CASES)
def test_q_map_flips_a_boundary_class_to_its_northern_representative(u, ref, north):
    v = (np.pi * u).tolist()
    expected = v if north else (-np.pi * u).tolist()
    for rep in (v, (-np.pi * u).tolist()):
        out = _q_map(rep, ref.tolist())
        assert np.array_equal(out, expected)
        assert np.array_equal(q_map(BallClass(rep), ref), expected)


def test_q_map_requires_unit_ref():
    with pytest.raises(DomainError):
        q_map(BallClass([0.0, 0.0, 0.5]), 2.0 * EZ)


def test_a_q_map_ref_dir_off_the_unit_sphere_is_refused_with_its_norm():
    # numpy prints the vector to 8 digits, as [0, 0, 1]; the message states the norm to 17
    with pytest.raises(DomainError) as refused:
        q_map(BallClass([0.0, 0.0, 0.5]), EZ * (1.0 + 2e-10))
    assert str(refused.value) == "q_map's ref_dir must be a unit vector to within 1e-10, got norm 1.0000000002"


def test_a_hemisphere_sign_u_off_the_unit_sphere_is_refused_with_its_norm():
    with pytest.raises(DomainError) as refused:
        hemisphere_sign(EX * (1.0 + 2e-10), EZ)
    assert str(refused.value) == (
        "hemisphere_sign's u must be a unit vector to within 1e-10, got norm 1.0000000002"
    )


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


def _bits(triple):
    return [x.hex() for x in triple]


def test_straight_line_kernels_are_bitwise_the_composed_forms():
    # the two right-hand-side kernels against the composed form they replaced,
    # byte for byte: series and closed branches, exp up to 3 pi, dexpinv up to
    # 1e-3 short of its singularity, and zero vectors of every sign
    rng = np.random.default_rng(14)
    zeros = [[sx * 0.0, sy * 0.0, sz * 0.0] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    nonzero = [0.3, -0.1, 0.2]
    zero_pairs = [(v, w) for v in zeros for w in [*zeros, nonzero]] + [(nonzero, w) for w in zeros]

    def pairs(vs):
        return [*zip(vs, rng.normal(size=(len(vs), 3)).tolist()), *zero_pairs]

    small = oracles.random_axis_vectors(rng, 500, SERIES_RADIUS).tolist()
    exp_vs = small + oracles.random_axis_vectors(rng, 1500, 3 * np.pi).tolist()
    dexpinv_vs = small + oracles.random_axis_vectors(rng, 1500, 2 * np.pi - 1e-3).tolist()
    dexpinv_vs.append(((2 * np.pi - 1e-3) * unit([1.0, -2.0, 0.5])).tolist())
    for v, w in pairs(exp_vs):
        want = oracles.quadratic_apply_composed(v, w, *oracles.exp_coeffs_composed(oracles.norm3_composed(v)))
        assert _bits(_exp_apply(v, w)) == _bits(want)
    for z, x in pairs(dexpinv_vs):
        want = oracles.quadratic_apply_composed(z, x, 0.5, oracles.c2_composed(oracles.norm3_composed(z)))
        assert _bits(_dexpinv_apply(z, x)) == _bits(want)
    # at 2 pi the matrix and the vector form raise the same SingularityError
    z = (2 * np.pi * unit([1.0, 2.0, -0.5])).tolist()
    with pytest.raises(SingularityError) as matrix:
        dexpinv_op(z)
    with pytest.raises(SingularityError) as flat:
        _dexpinv_apply(z, nonzero)
    assert str(flat.value) == str(matrix.value) == "dexpinv evaluated at |z| = 6.283185, within 1e-06 of 2*pi"


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


# ------------------------------------------------------------- array forms

def test_column_dot_is_bitwise_the_scalar_one_with_signed_zeros():
    # a column whose three products are all -0.0 sums to -0.0, as _dot3 sums it
    rng = np.random.default_rng(14)
    u = rng.standard_normal((3, 60)) * 10.0 ** rng.integers(-8, 9, (3, 60))
    v = rng.standard_normal((3, 60)) * 10.0 ** rng.integers(-8, 9, (3, 60))
    u[:, :4], v[:, :4] = -0.0, [[1.0, -0.0, 0.0, -1.0]]
    v[:, 4:8], u[:, 4:8] = -0.0, 0.0
    want = np.array([_dot3(a, b) for a, b in zip(u.T.tolist(), v.T.tolist())])
    assert np.signbit(want[:8]).any()
    assert _dot_columns(u, v).tobytes() == want.tobytes()


def test_array_exponential_is_bitwise_the_per_vector_one():
    rng = np.random.default_rng(12)
    vs = np.concatenate([
        np.zeros((1, 3)),
        oracles.random_axis_vectors(rng, 50, 0.5 * SERIES_RADIUS),
        oracles.random_axis_vectors(rng, 50, 2 * SERIES_RADIUS),
        oracles.random_axis_vectors(rng, 50, 2 * np.pi),
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = np.stack(_exp_entries_arrays(vs.T), axis=-1)
    assert got.tobytes() == np.array([_exp_entries(v) for v in vs.tolist()]).tobytes()


@pytest.mark.parametrize("v", [
    (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0), (0.0, 0.0, math.nan), (1e154, 1e154, 0.0), (0.0, 1e300, 0.0),
])
def test_scalar_exponential_refuses_a_non_finite_vector(v):
    # the rule lives where the trig runs: math's ValueError never leaves it
    with pytest.raises(DomainError, match="^expected a finite 3-vector$"):
        _exp_entries(v)


#: angles on both sides of the series switch and far from it
ANGLES = [0.0, 5e-324, 1e-200, 1e-8, math.nextafter(SERIES_RADIUS, 0.0), SERIES_RADIUS,
          math.nextafter(SERIES_RADIUS, 1.0), 1e-3, 1.0, math.pi, 2 * math.pi, 40.0, 1e300]


@given(st.one_of(st.sampled_from(ANGLES), st.floats(0.0, 2 * SERIES_RADIUS), st.floats(0.0, 1e3)))
def test_generated_rodrigues_coefficients_are_bitwise_the_composed_ones(theta):
    assert _bits(_exp_coeffs(theta)) == _bits(oracles.exp_coeffs_composed(theta))


def test_generated_rodrigues_coefficients_of_a_non_finite_angle():
    # nan passes through; math's sin refuses inf (the forcing turns that into a NaN value)
    assert all(math.isnan(c) for c in _exp_coeffs(math.nan))
    with pytest.raises(ValueError):
        _exp_coeffs(math.inf)


#: angles of the array form: the series switch with its neighbouring floats, and 0, 5e-324, pi and 1e3
ARRAY_ANGLES = [0.0, 5e-324, math.nextafter(SERIES_RADIUS, 0.0), SERIES_RADIUS,
                math.nextafter(SERIES_RADIUS, 1.0), math.pi, 1e3]


def test_array_rodrigues_coefficients_are_bitwise_the_scalar_ones():
    # each element takes its own branch of the series switch; nan passes through as in the scalar form
    angles = ARRAY_ANGLES + [1e-8, 1e-3, 1.0, 2 * math.pi, 40.0, math.nan]
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _exp_coeffs_arrays()(np.array(angles))
    assert [_bits(c) for c in zip(*(a.tolist() for a in got))] == [_bits(_exp_coeffs(t)) for t in angles]


def _entries_bits(vs) -> tuple[list, list]:
    """``float.hex`` of the nine entries of each vector, from the array form and from the scalar one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        got = np.stack(_exp_entries_arrays(np.array(vs, dtype=float).reshape(-1, 3).T), axis=-1)
    return [_bits(row) for row in got.tolist()], [_bits(_exp_entries(v)) for v in vs]


def test_array_exponential_of_the_switch_angles_is_bitwise_the_scalar_one():
    vs = [[s * angle if i == axis else 0.0 for i in range(3)]
          for angle in ARRAY_ANGLES for axis in range(3) for s in (1.0, -1.0)]
    vs += [[angle / math.sqrt(3.0)] * 3 for angle in ARRAY_ANGLES]
    got, want = _entries_bits(vs)
    assert got == want


@given(st.lists(
    st.tuples(
        st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))).filter(lambda d: sum(c * c for c in d) > 1e-6),
        st.one_of(st.sampled_from(ARRAY_ANGLES), st.floats(0.0, 2 * SERIES_RADIUS), st.floats(0.0, 1e3)),
    ),
    min_size=1, max_size=30,
))
def test_array_exponential_is_bitwise_the_scalar_one_element_by_element(cases):
    vs = [[angle * c / math.sqrt(sum(c * c for c in direction)) for c in direction] for direction, angle in cases]
    got, want = _entries_bits(vs)
    assert got == want


@given(
    st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))).filter(lambda d: sum(c * c for c in d) > 1e-6),
    st.one_of(st.sampled_from(ANGLES), st.floats(0.0, 2 * SERIES_RADIUS), st.floats(0.0, 10.0)),
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
)
def test_generated_rodrigues_entries_are_bitwise_the_composed_ones(direction, angle, a, b):
    v = [angle * c / math.sqrt(sum(c * c for c in direction)) for c in direction]
    assert _bits(_exp_entries(v)) == _bits(oracles.exp_entries_composed(v))
    assert _bits(_quadratic_entries(v, a, b)) == _bits(oracles.quadratic_entries_composed(v, a, b))


def test_array_hemisphere_map_leaves_zero_snapped_and_band_vectors_out():
    # the mask and the scalar map read one ball slack: a norm within it of pi is on the
    # boundary sphere for both, so the batch keeps no element that _q_map canonicalizes
    ref = (0.6, 0.0, 0.8)
    near, far = np.pi - 0.5 * _BALL_SLACK, np.pi - 2.0 * _BALL_SLACK
    rng = np.random.default_rng(13)
    plain = oracles.random_axis_vectors(rng, 60, np.pi - 1e-6).tolist() + [
        (0.6 * near, 0.0, 0.8 * near),  # within the slack of pi, off the equator
        (0.8 * far, 0.0, -0.6 * far),  # on the equator, outside the slack
    ]
    rare = [
        (0.0, 0.0, 0.0),  # zero
        (0.0, np.pi * (1 + 1e-13), 0.0),  # past pi: snapped onto the sphere
        (0.0, np.pi + 0.5 * _BALL_SLACK, 0.0),  # past pi within the slack: snapped
        (0.8 * np.pi, 0.0, -0.6 * np.pi),  # boundary sphere, on the equator
        (0.8 * near, 0.0, -0.6 * near),  # on the equator within the slack of pi
    ]
    vs = plain + rare
    with np.errstate(divide="ignore", invalid="ignore"):
        w, mask = _q_map_arrays(np.array(vs).T, ref)
    assert mask.tolist() == [True] * len(plain) + [False] * len(rare)
    got = np.array(w).T[mask]
    assert got.tobytes() == np.array([_q_map(_ball_vector(v), ref) for v in plain]).tobytes()
    # the two left out on the equator take _q_map's boundary branch, which the array map has not
    for v in rare[-2:]:
        assert _q_map(_ball_vector(v), ref) == tuple(-a for a in v)
    assert abs(_ball_vector(rare[2])[1] - np.pi) < 1e-15  # snapped, not refused
    with pytest.raises(DomainError, match="> pi \\+ 1e-12"):
        _ball_vector((0.0, np.pi + 2.0 * _BALL_SLACK, 0.0))


def _matmul3_generator(a, b):
    """``_matmul3`` as it was first written, a generator expression over the nine entries."""
    return tuple(
        a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]
        for i in (0, 3, 6) for j in (0, 1, 2)
    )


@given(st.lists(st.floats(), min_size=18, max_size=18))
def test_straight_line_matmul3_is_bitwise_the_generator_expression(entries):
    # the closed forms, verify's deviations and the bch check's defect are
    # products of this kernel; any float, inf and nan included, gives the same bits
    a, b = entries[:9], entries[9:]
    got = _matmul3(a, b)
    assert type(got) is tuple and len(got) == 9
    assert np.array(got).tobytes() == np.array(_matmul3_generator(a, b)).tobytes()
