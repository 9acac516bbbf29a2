"""Closed-form composition: homomorphism, branches, breakdown, folding."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rotwave import DomainError, bch, bch_breakdown, bch_fold, exp_rot, log_rot
from rotwave.bch import BRANCH_TOL, BchBranch

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def homomorphism_defect(x, y):
    return np.linalg.norm(exp_rot(bch(x, y).vector) - exp_rot(x) @ exp_rot(y))


# ------------------------------------------------------------ pinned examples

def test_identity_right_factor_reduces_into_ball():
    # |(0,0,4)| > pi, so composing with zero must still land in the ball
    cls = bch(np.array([0.0, 0.0, 4.0]), np.zeros(3))
    assert cls.norm <= np.pi + 1e-12
    assert np.allclose(cls.vector, [0.0, 0.0, 4.0 - 2 * np.pi], atol=1e-14)


def test_inverse_pair_is_identity_product():
    v = np.array([0.4, -1.1, 2.2])
    br = bch_breakdown(v, -v)
    assert br.branch is BchBranch.IDENTITY_PRODUCT
    assert np.array_equal(bch(v, -v).vector, np.zeros(3))


def test_quarter_turns_compose_to_third_turn():
    # z-quarter-turn then x-quarter-turn: 2pi/3 about (1,1,1)/sqrt(3)
    cls = bch(np.array([0.0, 0.0, np.pi / 2]), np.array([np.pi / 2, 0.0, 0.0]))
    assert abs(cls.norm - oracles.BCH_QUARTER_TURNS_ANGLE) < 1e-14
    expected = oracles.BCH_QUARTER_TURNS_COMPONENT * np.ones(3)
    assert np.allclose(cls.vector, expected, atol=1e-14)


def test_half_turn_constructions_are_exact():
    # three ways to produce a half turn; all dispatch the half-turn branch
    cases = [
        (np.pi * EX, np.zeros(3), np.pi * EX),
        ((np.pi / 2) * EX, (np.pi / 2) * EX, np.pi * EX),
        (np.pi * EZ, np.pi * EX, np.pi * EY),
    ]
    for x, y, expected in cases:
        br = bch_breakdown(x, y)
        assert br.branch is BchBranch.HALF_TURN_PRODUCT
        cls = bch(x, y)
        assert cls.isclose(log_rot(exp_rot(x) @ exp_rot(y)), tol=1e-13)
        assert np.allclose(cls.vector, expected, atol=1e-12) or np.allclose(
            cls.vector, -expected, atol=1e-12
        )


# ------------------------------------------------------------- homomorphism

def test_homomorphism_random_pairs():
    rng = np.random.default_rng(42)
    xs = oracles.random_axis_vectors(rng, 2000, 3 * np.pi)
    ys = oracles.random_axis_vectors(rng, 2000, 3 * np.pi)
    worst = 0.0
    for x, y in zip(xs, ys):
        worst = max(worst, homomorphism_defect(x, y))
    assert worst < 1e-10


def test_class_matches_quaternion_oracle():
    rng = np.random.default_rng(7)
    xs = oracles.random_axis_vectors(rng, 500, 3 * np.pi)
    ys = oracles.random_axis_vectors(rng, 500, 3 * np.pi)
    for x, y in zip(xs, ys):
        got = bch(x, y).vector
        want = oracles.bch_oracle(x, y)
        assert oracles.ball_distance(got, want) < 1e-10


def test_class_matches_matrix_log():
    # the quaternion-only dispatch against the product-matrix one: same class
    # and same branch label, except inside the +-BRANCH_TOL band around
    # quarter-turn products, where both generic branches share one formula
    rng = np.random.default_rng(11)
    xs = oracles.random_axis_vectors(rng, 10_000, 3 * np.pi)
    ys = oracles.random_axis_vectors(rng, 10_000, 3 * np.pi)
    for x, y in zip(xs, ys):
        assert bch(x, y).isclose(log_rot(exp_rot(x) @ exp_rot(y)), tol=1e-10)
        label, cos_theta = oracles.bch_branch_by_trace(x, y)
        if abs(cos_theta) > BRANCH_TOL:
            assert bch_breakdown(x, y).branch.value == label


vec3 = st.builds(
    lambda a, b, c: np.array([a, b, c]),
    *(st.floats(-3.0, 3.0) for _ in range(3)),
)


@given(vec3, vec3)
def test_homomorphism_property(x, y):
    assert homomorphism_defect(x, y) < 1e-10


@given(vec3)
def test_left_identity_property(x):
    assert bch(np.zeros(3), x).isclose(log_rot(exp_rot(x)), tol=1e-12)


# ------------------------------------------------------- parallel-axes cases

def test_parallel_axes_add_modulo_reduction():
    n = unit([1.0, 2.0, -1.0])
    for a, b in ((0.3, 0.4), (2.0, 2.0), (3.0, 3.0), (-1.0, 2.5), (3.1, 3.1)):
        cls = bch(a * n, b * n)
        total = a + b
        # reduce total*n into the ball by hand
        t = np.remainder(total, 2 * np.pi)
        if t > np.pi:
            t -= 2 * np.pi
        assert cls.isclose(log_rot(exp_rot(total * n)), tol=1e-12)
        assert abs(cls.norm - abs(t)) < 1e-12


# ------------------------------------------------------ branch-boundary band

def test_branch_continuity_parallel_quarter_turn():
    # a + b = pi/2 puts the product angle exactly on the cos = 0 boundary
    a = 0.9
    b = np.pi / 2 - a
    base = bch(a * EX, b * EX).vector
    for eps in (1e-8, -1e-8):
        near = bch(a * EX, (b + eps) * EX).vector
        assert np.linalg.norm(near - base) < 1e-6


def test_branch_continuity_perpendicular():
    # two equal rotations about orthogonal axes whose product angle is pi/2:
    # cos(c/2) = 2**-0.25 makes e = d1 = 1/sqrt(2)
    c = 2.0 * np.arccos(2.0 ** -0.25)
    base = bch(c * EZ, c * EX).vector
    assert abs(np.linalg.norm(base) - np.pi / 2) < 1e-9
    for eps in (1e-8, -1e-8):
        near = bch((c + eps) * EZ, c * EX).vector
        assert np.linalg.norm(near - base) < 1e-6
        assert homomorphism_defect((c + eps) * EZ, c * EX) < 1e-10


# --------------------------------------------------------- branch dispatch

def test_branch_labels():
    assert bch_breakdown(0.1 * EX, 0.1 * EY).branch is BchBranch.GENERIC_POSITIVE
    # product angle 3 > pi/2 -> non-positive cosine
    assert bch_breakdown(2.0 * EZ, 1.0 * EZ).branch is BchBranch.GENERIC_NON_POSITIVE
    assert bch_breakdown(np.pi * EZ, np.pi * EX).branch is BchBranch.HALF_TURN_PRODUCT
    v = np.array([0.3, 0.1, -0.2])
    assert bch_breakdown(v, -v).branch is BchBranch.IDENTITY_PRODUCT


@pytest.mark.parametrize("d1", [1e-13, 1e-12, 1e-11, 3e-11, 5e-11, 1e-10, 1e-9])
def test_near_identity_products(d1):
    # exp(x) exp(y) = exp(w) with |w| = 2 asin(d1): the identity branch takes
    # exactly the products with |prod - I|_F = 2 sqrt(2) d1 <= BRANCH_TOL, and
    # the generic branch divides by d1 safely right above that
    want = (
        BchBranch.IDENTITY_PRODUCT
        if 2.0 * np.sqrt(2.0) * d1 <= BRANCH_TOL
        else BchBranch.GENERIC_POSITIVE
    )
    rng = np.random.default_rng(31)
    xs = oracles.random_axis_vectors(rng, 200, 3 * np.pi)
    for x in xs:
        w = 2.0 * np.arcsin(d1) * unit(rng.normal(size=3))
        y = oracles.bch_oracle(-x, w)
        assert bch_breakdown(x, y).branch is want
        assert homomorphism_defect(x, y) < 1e-10


def test_breakdown_reproduces_result_exactly():
    rng = np.random.default_rng(3)
    xs = oracles.random_axis_vectors(rng, 50, 3 * np.pi)
    ys = oracles.random_axis_vectors(rng, 50, 3 * np.pi)
    for x, y in zip(xs, ys):
        br = bch_breakdown(x, y)
        if br.branch is BchBranch.IDENTITY_PRODUCT:
            continue
        rebuilt = br.alpha * x + br.beta * y + br.gamma * np.cross(x, y)
        assert np.array_equal(bch(x, y).vector, rebuilt)


def test_sign_flag_tracks_scalar_part():
    pos = bch_breakdown(0.2 * EZ, 0.3 * EX)
    assert pos.s == 1.0 and pos.e > 0
    neg = bch_breakdown(3.0 * EZ, 3.0 * EZ)  # e = cos(3) < 0
    assert neg.s == -1.0 and neg.e < 0
    for br in (pos, neg):
        assert br.s in (-1.0, 1.0)
        assert abs(br.d - 2.0 * br.d1 * abs(br.e)) == 0.0


def test_intermediates_match_quaternion_identities():
    x, y = np.array([0.7, -0.2, 1.1]), np.array([-0.4, 0.9, 0.3])
    br = bch_breakdown(x, y)
    hx, hy = np.linalg.norm(x) / 2, np.linalg.norm(y) / 2
    cos_ang = float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
    assert abs(br.e - (np.cos(hx) * np.cos(hy) - np.sin(hx) * np.sin(hy) * cos_ang)) < 1e-15
    assert abs(br.a1 - np.sin(hx) * np.cos(hy)) < 1e-15
    assert abs(br.b1 - np.cos(hx) * np.sin(hy)) < 1e-15
    assert abs(br.c1 - np.sin(hx) * np.sin(hy)) < 1e-15
    assert abs(br.e**2 + br.d1**2 - 1.0) < 1e-14  # unit quaternion
    # d = |sin(product angle)|
    prod = exp_rot(x) @ exp_rot(y)
    theta = float(np.arccos(np.clip((np.trace(prod) - 1) / 2, -1, 1)))
    assert abs(br.d - abs(np.sin(theta))) < 1e-13


# -------------------------------------------------------------------- fold

def test_fold_single_and_padded():
    v = np.array([0.0, 0.0, 4.0])
    reduced = np.array([0.0, 0.0, 4.0 - 2 * np.pi])
    assert np.allclose(bch_fold([v]).vector, reduced, atol=1e-14)
    assert np.allclose(bch_fold([v, np.zeros(3), np.zeros(3)]).vector, reduced, atol=1e-13)


def test_fold_matches_matrix_product_small():
    rng = np.random.default_rng(21)
    parts = list(oracles.random_axis_vectors(rng, 8, 0.3))
    prod = np.eye(3)
    for p in parts:
        prod = prod @ exp_rot(p)
    assert bch_fold(parts).isclose(log_rot(prod), tol=1e-10)


def test_fold_matches_matrix_product_long():
    rng = np.random.default_rng(22)
    parts = list(oracles.random_axis_vectors(rng, 64, 3 * np.pi))
    prod = np.eye(3)
    for p in parts:
        prod = prod @ exp_rot(p)
    assert bch_fold(parts).isclose(log_rot(prod), tol=1e-9)


def test_fold_empty_raises():
    with pytest.raises(DomainError):
        bch_fold([])
