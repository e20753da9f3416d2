import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import linalg

from spdbci import manifold, mdrm
from spdbci.errors import ConvergenceError, NumericalError, ValidationError
from spdbci.estimators import EstimatorSpec

from conftest import random_spd, random_sym


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------

def test_matrix_exp_zero_is_identity():
    assert_allclose(manifold.matrix_exp(np.zeros((3, 3))), np.eye(3),
                    atol=1e-14)


def test_matrix_exp_diagonal():
    s = np.diag([np.log(2.0), np.log(3.0)])
    assert_allclose(manifold.matrix_exp(s), np.diag([2.0, 3.0]), atol=1e-12)


def _taylor_exp(s, terms=30):
    """Independent series oracle: sum of S^k / k!."""
    out = np.eye(s.shape[0])
    term = np.eye(s.shape[0])
    for k in range(1, terms + 1):
        term = term @ s / k
        out = out + term
    return out


def test_matrix_exp_matches_taylor_series():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_sym(rng, 3, scale=0.6)
        assert np.linalg.norm(manifold.matrix_exp(s) - _taylor_exp(s)) < 1e-8


def test_matrix_exp_rejects_nonsymmetric():
    with pytest.raises(ValidationError):
        manifold.matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exp_overflow_raises_instead_of_returning_nan():
    # the whitened tangent's eigenvalues are 500 and 1500
    with pytest.raises(NumericalError, match="overflows exp"):
        manifold.exp_map(1e-3 * np.eye(2), [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(NumericalError, match="overflows exp"):
        manifold.matrix_exp(np.diag([800.0, 1.0]))
    assert np.isfinite(manifold.matrix_exp(np.diag([709.0, 1.0]))).all()


def test_matrix_exp_output_eigenvalues_positive():
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = random_sym(rng, 4, scale=2.0)
        w = np.linalg.eigvalsh(manifold.matrix_exp(s))
        assert np.all(w > 0)


def test_matrix_log_identity_is_zero():
    assert_allclose(manifold.matrix_log(np.eye(4)), np.zeros((4, 4)),
                    atol=1e-14)


def test_matrix_log_diagonal():
    p = np.diag([np.e, np.e ** 2])
    assert_allclose(manifold.matrix_log(p), np.diag([1.0, 2.0]), atol=1e-12)


def test_matrix_log_exp_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_spd(rng, 4)
        back = manifold.matrix_exp(manifold.matrix_log(p))
        assert np.linalg.norm(back - p) < 1e-8


def test_matrix_log_rejects_indefinite():
    with pytest.raises(ValidationError):
        manifold.matrix_log(np.diag([1.0, -0.5]))


def test_matrix_sqrt_identity_and_diagonal():
    assert_allclose(manifold.matrix_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    assert_allclose(manifold.matrix_sqrt(np.diag([4.0, 9.0])),
                    np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_sqrt_multiplication_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_spd(rng, 5)
        r = manifold.matrix_sqrt(p)
        assert np.linalg.norm(r @ r - p) < 1e-8
        assert np.all(np.linalg.eigvalsh(r) > 0)  # the SPD root


def test_matrix_invsqrt_is_inverse_of_sqrt():
    rng = np.random.default_rng(5)
    p = random_spd(rng, 4)
    prod = manifold.matrix_invsqrt(p) @ manifold.matrix_sqrt(p)
    assert_allclose(prod, np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# exponential / logarithmic maps
# ---------------------------------------------------------------------------

def test_exp_map_zero_tangent_returns_base():
    rng = np.random.default_rng(6)
    p = random_spd(rng, 4)
    assert_allclose(manifold.exp_map(p, np.zeros((4, 4))), p, atol=1e-10)


def test_exp_map_at_identity_reduces_to_matrix_exp():
    rng = np.random.default_rng(7)
    s = random_sym(rng, 4)
    assert_allclose(manifold.exp_map(np.eye(4), s), manifold.matrix_exp(s),
                    atol=1e-10)


def test_log_map_at_same_point_is_zero():
    rng = np.random.default_rng(8)
    p = random_spd(rng, 5)
    assert np.linalg.norm(manifold.log_map(p, p)) < 1e-10


def test_log_map_at_identity_reduces_to_matrix_log():
    rng = np.random.default_rng(9)
    q = random_spd(rng, 4)
    assert_allclose(manifold.log_map(np.eye(4), q), manifold.matrix_log(q),
                    atol=1e-10)


def test_exp_log_maps_are_mutual_inverses():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_spd(rng, 4)
        q = random_spd(rng, 4)
        assert np.linalg.norm(manifold.exp_map(p, manifold.log_map(p, q)) - q) < 1e-7
        s = random_sym(rng, 4, scale=0.5)
        back = manifold.log_map(p, manifold.exp_map(p, s))
        assert np.linalg.norm(back - s) < 1e-7


def test_map_dimension_mismatch():
    with pytest.raises(ValidationError):
        manifold.exp_map(np.eye(3), np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        manifold.log_map(np.eye(3), np.eye(4))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_to_self_is_zero():
    rng = np.random.default_rng(11)
    p = random_spd(rng, 4)
    assert manifold.distance(p, p) < 1e-12


def test_distance_single_log_eigenvalue():
    assert abs(manifold.distance(np.eye(2), np.diag([np.e, 1.0])) - 1.0) < 1e-12


def test_distance_matches_generalized_eigenvalue_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p1 = random_spd(rng, 3)
        p2 = random_spd(rng, 3)
        # independent path: eigenvalues of p1^-1 p2 formed explicitly
        lam = np.linalg.eigvals(np.linalg.solve(p1, p2)).real
        expected = np.sqrt(np.sum(np.log(lam) ** 2))
        assert abs(manifold.distance(p1, p2) - expected) < 1e-9


def test_distance_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_spd(rng, 4)
        q = random_spd(rng, 4)
        assert abs(manifold.distance(p, q) - manifold.distance(q, p)) < 1e-9


def test_distance_triangle_inequality():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p, q, r = (random_spd(rng, 4) for _ in range(3))
        assert manifold.distance(p, r) <= \
            manifold.distance(p, q) + manifold.distance(q, r) + 1e-9


def test_distance_congruence_invariance():
    rng = np.random.default_rng(15)
    for _ in range(10):
        p = random_spd(rng, 4)
        q = random_spd(rng, 4)
        w = rng.standard_normal((4, 4)) + 0.5 * np.eye(4)
        d0 = manifold.distance(p, q)
        d1 = manifold.distance(w @ p @ w.T, w @ q @ w.T)
        assert abs(d0 - d1) < 1e-7


def test_distance_inversion_invariance():
    rng = np.random.default_rng(16)
    for _ in range(10):
        p = random_spd(rng, 4)
        q = random_spd(rng, 4)
        d0 = manifold.distance(p, q)
        d1 = manifold.distance(np.linalg.inv(p), np.linalg.inv(q))
        assert abs(d0 - d1) < 1e-7


def test_distance_dimension_mismatch():
    for p2 in (np.eye(4), np.ones((3, 2, 3)), np.array([np.eye(4)] * 2),
               np.zeros((0, 3, 3)), np.zeros((1, 1, 3, 3))):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            manifold.distance(np.eye(3), p2)


def test_distance_rejects_indefinite():
    indefinite = np.diag([1.0, -1.0])
    stack = np.array([np.eye(2), indefinite])
    for p1, p2 in ((indefinite, np.eye(2)), (np.eye(2), indefinite),
                   (np.eye(2), stack), (indefinite, stack)):
        with pytest.raises(ValidationError):
            manifold.distance(p1, p2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3, 8, 24])
def test_distance_stack_matches_pairs_bitwise(k, dim):
    # 1 x 1 matrices are left out: there a one-column triangular solve
    # divides while a wider one multiplies by the reciprocal, so a stack
    # may differ from the pair by one ulp.
    rng = np.random.default_rng(100 * k + dim)
    for spread in (0.5, 7.0):  # at 24 x 24, condition numbers near 1e12
        p = random_spd(rng, dim, spread)
        stack = np.array([random_spd(rng, dim, spread) for _ in range(k)])
        dists = manifold.distance(p, stack)
        assert isinstance(dists, np.ndarray) and dists.shape == (k,)
        pairs = [manifold.distance(p, m) for m in stack]
        assert all(isinstance(d, float) for d in pairs)
        assert np.array_equal(dists, pairs)


def test_distance_falls_back_to_base_factors_for_singular_p1():
    rng = np.random.default_rng(17)
    singular = np.diag([1.0, 0.0, 2.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular)
    stack = np.array([random_spd(rng, 4) for _ in range(3)])
    dists = manifold.distance(singular, stack)
    # each base's factor whitens p1: the pair computed the other way round
    assert np.array_equal(dists, [manifold.distance(m, singular)
                                  for m in stack])
    assert np.all(np.isfinite(dists)) and np.all(dists > 10.0)


def test_distance_neither_factorizable():
    singular = np.diag([1.0, 0.0])
    with pytest.raises(ValidationError, match=r"neither p1 nor p2\[1\]"):
        manifold.distance(singular, np.array([np.eye(2), singular]))


def test_distance_rejects_asymmetric_stack_member():
    rng = np.random.default_rng(18)
    stack = np.array([random_spd(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 1e-3
    with pytest.raises(ValidationError, match=r"p2\[2\] is not symmetric"):
        manifold.distance(np.eye(3), stack)
    stack[2] = (stack[2] + stack[2].T) / 2.0
    assert manifold.distance(np.eye(3), stack).shape == (4,)


# ---------------------------------------------------------------------------
# distance to factored references
# ---------------------------------------------------------------------------

def _conditioned_spd(rng, dim, log10_cond):
    """Random SPD matrix whose eigenvalues span exactly 10**log10_cond,
    at a random scale between 1e-3 and 1e3."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    exps = np.concatenate([[0.0, log10_cond],
                           rng.uniform(0.0, log10_cond, dim - 2)])
    return (q * 10.0 ** (exps + rng.uniform(-3.0, 3.0))) @ q.T


# (seed, dim, K, log10 of each matrix's condition number); a pair of
# matrices conditioned up to 1e3 each has generalized eigenvalues
# spanning up to 1e6
_spd_sets = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 12),
                      st.integers(1, 5), st.floats(0.0, 3.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(case=_spd_sets)
def test_factored_distances_match_plain_stack(case):
    seed, dim, k, log10_cond = case
    rng = np.random.default_rng(seed)
    p = _conditioned_spd(rng, dim, log10_cond)
    stack = np.array([_conditioned_spd(rng, dim, log10_cond)
                      for _ in range(k)])
    plain = manifold.distance(p, stack)
    model = mdrm.ClassModel(stack, EstimatorSpec(),
                            mdrm.PreprocSpec((13.0,), 256.0))
    label, factored = mdrm.classify_covariance(p, model)
    assert_allclose(factored, plain, rtol=1e-10, atol=0)
    assert_allclose(manifold.distance(p, manifold.FactoredStack(stack)),
                    factored, rtol=0, atol=0)
    nearest = np.sort(plain)
    if k == 1 or nearest[1] - nearest[0] > 1e-9 * nearest[1]:
        assert label == int(np.argmin(plain)) + 1


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_spd_sets, points=st.integers(1, 6))
def test_stacked_p1_factored_distances_equal_single_calls_bitwise(case,
                                                                  points):
    seed, dim, k, log10_cond = case
    rng = np.random.default_rng(seed)
    refs = manifold.FactoredStack(np.array(
        [_conditioned_spd(rng, dim, log10_cond) for _ in range(k)]))
    p1 = np.array([_conditioned_spd(rng, dim, log10_cond)
                   for _ in range(points)])
    stacked = manifold.distance(p1, refs)
    assert stacked.shape == (points, k)
    assert [row.tobytes() for row in stacked] == \
        [manifold.distance(p, refs).tobytes() for p in p1]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), points=st.integers(1, 6))
def test_stacked_classification_equals_single_calls(seed, points):
    # centers 2 and 3 are equal, so points nearest them tie: both the
    # stack and the single calls give the lower label
    rng = np.random.default_rng(seed)
    a, b = random_spd(rng, 6), random_spd(rng, 6)
    model = mdrm.ClassModel((a, b, b), EstimatorSpec(),
                            mdrm.PreprocSpec((13.0, 17.0), 256.0))
    covs = np.array([random_spd(rng, 6) for _ in range(points - 1)] + [b])
    labels, dists = mdrm.classify_covariance(covs, model)
    assert labels.shape == (points,) and dists.shape == (points, 3)
    for cov, label, row in zip(covs, labels, dists):
        single_label, single = mdrm.classify_covariance(cov, model)
        assert type(single_label) is int and single_label == label
        assert single.tobytes() == row.tobytes()
        assert row[1] == row[2] and label in (1, 2)
    assert labels[-1] == 2


def test_stacked_p1_member_errors_name_it():
    rng = np.random.default_rng(12)
    good = random_spd(rng, 4)
    refs = manifold.FactoredStack(np.stack([good, random_spd(rng, 4)]))
    asym = good.copy()
    asym[0, 1] += 1e-3 * np.linalg.norm(good)
    cases = {r"p1\[1\] has non-finite": _spoiled(np.nan),
             r"p1\[1\] is not symmetric": asym,
             r"p1\[1\] is not positive definite": -good}
    for message, bad in cases.items():
        with pytest.raises(ValidationError, match=message):
            manifold.distance(np.stack([good, bad, good]), refs)


def _conditioned_matrix(rng, dim, log10_cond):
    """Random invertible matrix whose singular values span exactly
    10**log10_cond, at a random scale between 1e-2 and 1e2."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    exps = np.concatenate([[0.0, log10_cond],
                           rng.uniform(0.0, log10_cond, dim - 2)])
    return (q1 * 10.0 ** (exps + rng.uniform(-2.0, 2.0))) @ q2


# (seed, dim, log10 of each matrix's condition number, up to 4); over
# 15 000 random such pairs the properties below held to 3.8e-10 relative
# (symmetry, factored path) and 6.4e-10 (affine invariance)
_conditioned_pairs = st.tuples(st.integers(0, 2 ** 32 - 1),
                               st.integers(2, 12), st.floats(0.0, 4.0))


def _pair(case):
    seed, dim, log10_cond = case
    rng = np.random.default_rng(seed)
    a, b = (_conditioned_spd(rng, dim, log10_cond) for _ in range(2))
    return rng, a, b, manifold.distance(a, b)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=_conditioned_pairs)
def test_distance_is_symmetric(case):
    _, a, b, d = _pair(case)
    assert_allclose(manifold.distance(b, a), d, rtol=1e-9, atol=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=_conditioned_pairs, share=st.floats(0.0, 1.0))
def test_distance_is_affine_invariant(case, share):
    rng, a, b, d = _pair(case)
    # W's condition number squared times each matrix's stays within 1e4
    w = _conditioned_matrix(rng, len(a), share * (4.0 - case[2]) / 2.0)
    assert_allclose(manifold.distance(w @ a @ w.T, w @ b @ w.T), d,
                    rtol=1e-9, atol=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=_conditioned_pairs)
def test_factored_distance_equals_plain_distance(case):
    _, a, b, d = _pair(case)
    assert_allclose(manifold.distance(a, manifold.FactoredStack([b])), [d],
                    rtol=1e-9, atol=0)


def _non_pd(p):
    """``p`` with its smallest eigenvalue replaced by minus half its largest."""
    w, u = np.linalg.eigh(p)
    w[0] = -0.5 * w[-1]
    return (u * w) @ u.T


def _asymmetric(p):
    p = p.copy()
    p[0, -1] += 1e-6 * np.abs(p).max()
    return p


def _with_nan(p):
    p = p.copy()
    p[-1, 0] = np.nan
    return p


# (seed, dim, T, K, log10 of each matrix's condition number, index of a
# rank-deficient p1, or one past the stack for none)
_p1_stacks = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 8),
                       st.integers(1, 5), st.integers(1, 4),
                       st.floats(0.0, 6.0), st.integers(0, 5))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(case=_p1_stacks)
def test_stacked_p1_matches_single_p1_bitwise(case):
    seed, dim, t, k, log10_cond, singular = case
    rng = np.random.default_rng(seed)
    p1 = np.array([_conditioned_spd(rng, dim, log10_cond) for _ in range(t)])
    if singular < t:
        # no Cholesky factor, so each base's factor whitens this member
        v = rng.standard_normal((dim, dim - 1))
        p1[singular] = v @ v.T
    stack = np.array([_conditioned_spd(rng, dim, log10_cond)
                      for _ in range(k)])
    rows = manifold.distance(p1, stack)
    assert rows.shape == (t, k)
    assert np.array_equal(rows, [manifold.distance(p, stack) for p in p1])
    column = manifold.distance(p1, stack[0])
    assert column.shape == (t,)
    assert np.array_equal(column, [manifold.distance(p, stack[0])
                                   for p in p1])


@pytest.mark.parametrize("spoil, message",
                         [(_asymmetric, "is not symmetric"),
                          (_with_nan, "has non-finite")])
def test_stacked_p1_names_a_bad_member(spoil, message):
    rng = np.random.default_rng(31)
    p1 = np.array([random_spd(rng, 3) for _ in range(4)])
    p1[2] = spoil(p1[2])
    for p2 in (np.eye(3), np.array([np.eye(3), random_spd(rng, 3)])):
        with pytest.raises(ValidationError, match=rf"p1\[2\] {message}"):
            manifold.distance(p1, p2)


def test_stacked_p1_neither_factorizable_names_the_member():
    p1 = np.array([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(ValidationError, match=r"neither p1\[1\] nor p2 "):
        manifold.distance(p1, np.diag([0.0, 1.0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_spd_sets,
       spoil=st.sampled_from([_non_pd, _asymmetric, _with_nan]))
def test_factored_distance_rejects_bad_point_by_name(case, spoil):
    seed, dim, k, log10_cond = case
    rng = np.random.default_rng(seed)
    factors = manifold.FactoredStack(
        [_conditioned_spd(rng, dim, log10_cond) for _ in range(k)])
    bad = spoil(_conditioned_spd(rng, dim, log10_cond))
    # ValidationError, never a LinAlgError from inside the kernel
    with pytest.raises(ValidationError, match=r"^p1 "):
        manifold.distance(bad, factors)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=_spd_sets, at=st.integers(0, 4),
       spoil=st.sampled_from([_non_pd, _asymmetric, _with_nan,
                              lambda p: np.zeros_like(p)]))
def test_factors_reject_bad_reference_by_name(case, at, spoil):
    seed, dim, k, log10_cond = case
    rng = np.random.default_rng(seed)
    refs = [_conditioned_spd(rng, dim, log10_cond) for _ in range(k)]
    at %= k
    refs[at] = spoil(refs[at])
    with pytest.raises(ValidationError, match=rf"^centers\[{at}\] "):
        manifold.FactoredStack(refs, "centers")


def test_factored_distance_dimension_mismatch():
    factors = manifold.FactoredStack([np.eye(3), 2.0 * np.eye(3)])
    with pytest.raises(ValidationError, match="dimension mismatch"):
        manifold.distance(np.eye(4), factors)
    for bad in (np.eye(3), np.zeros((0, 3, 3)), np.ones((2, 3, 2))):
        with pytest.raises(ValidationError):
            manifold.FactoredStack(bad)


# ---------------------------------------------------------------------------
# geometric mean
# ---------------------------------------------------------------------------

def test_karcher_mean_single_point():
    rng = np.random.default_rng(17)
    p = random_spd(rng, 4)
    assert_allclose(manifold.karcher_mean([p]), p, atol=1e-12)


def test_karcher_mean_reciprocal_pair_is_identity():
    p = np.diag([3.0, 0.2])
    q = np.diag([1.0 / 3.0, 5.0])
    assert_allclose(manifold.karcher_mean([p, q]), np.eye(2), atol=1e-8)


def test_karcher_mean_commuting_closed_form():
    rng = np.random.default_rng(18)
    eigs = rng.uniform(0.2, 5.0, size=(6, 4))
    mats = [np.diag(e) for e in eigs]
    expected = np.diag(np.exp(np.mean(np.log(eigs), axis=0)))
    got = manifold.karcher_mean(mats)
    assert np.linalg.norm(got - expected) < 1e-8


def test_karcher_mean_first_order_condition():
    rng = np.random.default_rng(19)
    mats = [random_spd(rng, 4) for _ in range(7)]
    tol = 1e-8
    mean = manifold.karcher_mean(mats, tolerance=tol)
    grad = sum(manifold.log_map(mean, m) for m in mats) / len(mats)
    assert np.linalg.norm(grad) < tol


def test_karcher_mean_congruence_equivariance():
    rng = np.random.default_rng(20)
    mats = [random_spd(rng, 4) for _ in range(5)]
    w = rng.standard_normal((4, 4)) + 0.5 * np.eye(4)
    lhs = manifold.karcher_mean([w @ m @ w.T for m in mats])
    rhs = w @ manifold.karcher_mean(mats) @ w.T
    assert np.linalg.norm(lhs - rhs) < 1e-6


def test_karcher_mean_empty_list_rejected():
    with pytest.raises(ValidationError):
        manifold.karcher_mean([])


def test_karcher_mean_nonconvergence_carries_iterate():
    rng = np.random.default_rng(21)
    mats = [random_spd(rng, 4, spread=2.0) for _ in range(5)]
    with pytest.raises(ConvergenceError) as err:
        manifold.karcher_mean(mats, tolerance=1e-14, max_iterations=2)
    assert err.value.last_iterate is not None
    assert err.value.last_iterate.shape == (4, 4)
    assert err.value.residual > 0


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_stalled_mean_reports_the_residual_of_its_last_iterate(cap):
    # the residual is the Frobenius norm of the mean log map at the
    # returned iterate, as generalized eigenvectors of (P, G) compute it
    rng = np.random.default_rng(23)
    problems = np.array([[random_spd(rng, 4, spread=2.0) for _ in range(5)]
                         for _ in range(3)])

    def reference(mean, points):
        step = np.zeros_like(mean)
        for point in points:
            w, v = linalg.eigh(point, mean)
            step += (v * np.log(w)) @ v.T
        return np.linalg.norm(mean @ step @ mean / len(points))

    with pytest.raises(ConvergenceError) as single:
        manifold.karcher_mean(problems[0], 1e-14, cap)
    assert single.value.residual == pytest.approx(
        reference(single.value.last_iterate, problems[0]), rel=1e-10)
    with pytest.raises(ConvergenceError) as batch:
        manifold.karcher_mean(problems, 1e-14, cap)
    assert batch.value.residual == pytest.approx(
        [reference(m, p) for m, p in zip(batch.value.last_iterate, problems)],
        rel=1e-10)


# (seed, R, N, dim, log10 of each matrix's condition number, tolerance,
# iteration cap); a cap of 2 stalls most problems of two or more points
_mean_batches = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
                          st.integers(1, 5), st.integers(2, 8),
                          st.floats(0.0, 6.0), st.sampled_from([1e-3, 1e-8]),
                          st.sampled_from([2, 6, 200]))


def _check_batch_against_single_means(points, tol, cap):
    """The batch call on ``points`` equals one call per problem bit for
    bit, a stalled problem's ``last_iterate`` and ``residual`` included."""
    r, _, dim, _ = points.shape
    residual = None
    try:
        batch = manifold.karcher_mean(points, tol, cap)
    except ConvergenceError as exc:
        batch, residual = exc.last_iterate, exc.residual
        assert residual.shape == (r,)
    assert batch.shape == (r, dim, dim)
    stalled = []
    for i, problem in enumerate(points):
        try:
            single = manifold.karcher_mean(list(problem), tol, cap)
        except ConvergenceError as exc:
            stalled.append(i)
            assert np.array_equal(batch[i], exc.last_iterate)
            assert residual[i] == exc.residual
        else:
            assert np.array_equal(batch[i], single)
    assert (residual is None) == (not stalled)
    if residual is not None:
        assert list(np.flatnonzero(~(residual < tol))) == stalled
    return stalled


def _mean_batch(rng, r, n, dim, log10_cond):
    """r problems, each of n points drawn with replacement from n
    matrices, so bitwise duplicates are common."""
    pools = [[_conditioned_spd(rng, dim, log10_cond) for _ in range(n)]
             for _ in range(r)]
    return np.array([[pool[j] for j in rng.integers(0, n, n)]
                     for pool in pools])


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(case=_mean_batches)
def test_batch_means_match_single_means_bitwise(case):
    seed, r, n, dim, log10_cond, tol, cap = case
    rng = np.random.default_rng(seed)
    _check_batch_against_single_means(
        _mean_batch(rng, r, n, dim, log10_cond), tol, cap)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=_mean_batches, chunk=st.integers(1, 4))
def test_chunked_batch_means_match_single_means_bitwise(case, chunk):
    seed, r, n, dim, log10_cond, tol, cap = case
    rng = np.random.default_rng(seed)
    # more problems than one chunk holds, and at least two points each
    points = _mean_batch(rng, r + chunk, max(n, 2), dim, log10_cond)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifold, "_MEAN_CHUNK", chunk)
        _check_batch_against_single_means(points, tol, cap)


def test_chunked_batch_mean_keeps_the_stalls_of_each_chunk():
    rng = np.random.default_rng(24)
    base = random_spd(rng, 4)
    tight = [base * (1.0 + 1e-9 * k) for k in range(3)]
    spread = [random_spd(rng, 4, spread=2.0) for _ in range(3)]
    # problems 1 and 4 stall, one in each of the chunks of three
    points = np.array([tight, spread, tight, tight, spread])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifold, "_MEAN_CHUNK", 3)
        assert _check_batch_against_single_means(points, 1e-8, 3) == [1, 4]
        with pytest.raises(ConvergenceError, match="2 of 5 problems"):
            manifold.karcher_mean(points, 1e-8, 3)


def test_batch_mean_stall_keeps_the_converged_means():
    # one tight problem converges, one spread problem stalls at the cap
    rng = np.random.default_rng(22)
    base = random_spd(rng, 4)
    tight = [base * (1.0 + 1e-9 * k) for k in range(3)]
    spread = [random_spd(rng, 4, spread=2.0) for _ in range(3)]
    with pytest.raises(ConvergenceError) as err:
        manifold.karcher_mean(np.array([tight, spread]), 1e-8, 3)
    assert np.array_equal(err.value.last_iterate[0],
                          manifold.karcher_mean(tight, 1e-8, 3))
    assert err.value.residual[0] < 1e-8 <= err.value.residual[1]
    with pytest.raises(ConvergenceError) as single:
        manifold.karcher_mean(spread, 1e-8, 3)
    assert np.array_equal(err.value.last_iterate[1],
                          single.value.last_iterate)
    assert err.value.residual[1] == single.value.residual


@pytest.mark.parametrize("spoil, message",
                         [(lambda p: p + np.triu(np.ones_like(p), 1),
                           "is not symmetric"),
                          (lambda p: -p, "is not positive definite")])
def test_batch_mean_errors_name_the_point(spoil, message):
    rng = np.random.default_rng(23)
    points = np.array([[random_spd(rng, 3) for _ in range(3)]
                       for _ in range(2)])
    points[1, 2] = spoil(points[1, 2])
    with pytest.raises(ValidationError, match=rf"points\[1, 2\] {message}"):
        manifold.karcher_mean(points)


def test_mean_of_ragged_points_names_the_odd_one():
    with pytest.raises(ValidationError,
                       match=r"points\[1\] has dim 3, expected 2"):
        manifold.karcher_mean([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("n", [1, 3])
def test_mean_validates_points_in_one_stack_pass(monkeypatch, n):
    rng = np.random.default_rng(24)
    points = np.array([[random_spd(rng, 3) for _ in range(n)]
                       for _ in range(2)])
    expected = manifold.karcher_mean(points)
    calls = []
    symmetrize = manifold.symmetrize
    monkeypatch.setattr(manifold, "symmetrize",
                        lambda *a: calls.append(a) or symmetrize(*a))
    assert_array_equal(manifold.karcher_mean(points), expected)
    assert_array_equal(manifold.karcher_mean(list(points[0])), expected[0])
    assert calls == []


# ---------------------------------------------------------------------------
# condition ratio
# ---------------------------------------------------------------------------

def test_condition_ratio_identity_and_diagonal():
    assert manifold.condition_ratio(np.eye(5)) == pytest.approx(1.0)
    assert manifold.condition_ratio(np.diag([10.0, 0.1])) == pytest.approx(100.0)


def test_condition_ratio_matches_eigenvalue_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_spd(rng, 5)
        w = np.linalg.eigvalsh(p)
        expected = w[-1] / w[0]
        assert manifold.condition_ratio(p) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# symmetry check
# ---------------------------------------------------------------------------

def test_small_asymmetric_matrix_rejected():
    # 47 % relative asymmetry, at the scale of covariances of data in volts
    with pytest.raises(ValidationError, match="relative asymmetry 4.7"):
        manifold.symmetrize(1e-12 * np.array([[1.0, 0.5], [0.0, 1.0]]))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 8),
       log10_scale=st.floats(-12.0, 6.0))
def test_symmetry_check_is_relative_at_any_scale(seed, dim, log10_scale):
    rng = np.random.default_rng(seed)
    sym = _conditioned_spd(rng, dim, 2.0)
    sym = (sym + sym.T) * (0.5 * 10.0 ** log10_scale / np.linalg.norm(sym))
    skew = rng.standard_normal((dim, dim))
    skew -= skew.T
    # ||A - A^T||_F is 1e-3 ||sym||_F, and ||A||_F is ||sym||_F to 1e-6
    bad = sym + (0.5e-3 * np.linalg.norm(sym) / np.linalg.norm(skew)) * skew
    assert np.array_equal(manifold.symmetrize(sym), sym)
    assert manifold.distance(sym, manifold.FactoredStack([sym]))[0] < 1e-12
    with pytest.raises(ValidationError, match="relative asymmetry 1.00"):
        manifold.symmetrize(bad)
    with pytest.raises(ValidationError, match=r"p2\[0\] is not symmetric"):
        manifold.FactoredStack([bad])


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

def _spoiled(value, dim=4):
    """An SPD matrix with ``value`` in one off-diagonal entry."""
    p = random_spd(np.random.default_rng(7), dim)
    p[0, 1] = value
    return p


_NON_FINITE_CALLS = {
    "distance p1": lambda bad, good: manifold.distance(bad, good),
    "distance p2": lambda bad, good: manifold.distance(good, bad),
    "distance stack": lambda bad, good: manifold.distance(
        good, np.stack([good, bad, good])),
    "karcher_mean": lambda bad, good: manifold.karcher_mean([good, bad]),
    "log_map base": lambda bad, good: manifold.log_map(bad, good),
    "log_map point": lambda bad, good: manifold.log_map(good, bad),
    "matrix_log": lambda bad, good: manifold.matrix_log(bad),
    "matrix_exp": lambda bad, good: manifold.matrix_exp(bad),
    "condition_ratio": lambda bad, good: manifold.condition_ratio(bad),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
def test_non_finite_matrix_rejected(call, value):
    good = random_spd(np.random.default_rng(8), 4)
    with pytest.raises(ValidationError, match="non-finite"):
        _NON_FINITE_CALLS[call](_spoiled(value), good)


def test_non_finite_error_names_stack_member():
    good = random_spd(np.random.default_rng(8), 4)
    with pytest.raises(ValidationError, match=r"p2\[1\] has non-finite"):
        manifold.distance(good, np.stack([good, _spoiled(np.nan), good]))


def test_huge_finite_entries_are_not_called_non_finite():
    # the Frobenius norms overflow, but every entry is finite
    big = np.diag([1e200, 1e200])
    with np.errstate(over="ignore"):
        d = manifold.distance(big, np.stack([big, 2.0 * big]))
    assert_allclose(d, [0.0, np.sqrt(2.0) * np.log(2.0)], rtol=1e-12)
