import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spdbci import estimators as est
from spdbci.errors import ConvergenceError, ValidationError
from spdbci.manifold import condition_ratio


def make_trial(values, fs=256.0):
    return est.Trial(np.asarray(values, dtype=float), fs)


# ---------------------------------------------------------------------------
# Trial
# ---------------------------------------------------------------------------

def test_trial_validation():
    with pytest.raises(ValidationError):
        est.Trial(np.zeros(5), 256.0)
    with pytest.raises(ValidationError):
        est.Trial(np.zeros((2, 10)), 0.0)
    t = make_trial(np.zeros((3, 8)))
    assert t.channels == 3 and t.samples == 8
    assert t.duration == pytest.approx(8 / 256.0)


# samples that a float conversion would drop a part of or fail on
NON_REAL_SAMPLES = {
    "complex": np.ones((2, 10), dtype=complex),
    "string": np.full((2, 10), "x"),
    "object": np.full((2, 10), None, dtype=object),
}


@pytest.mark.parametrize("kind", sorted(NON_REAL_SAMPLES))
def test_trial_refuses_non_real_samples(kind):
    with pytest.raises(ValidationError, match="must be real numbers"):
        est.Trial(NON_REAL_SAMPLES[kind], 256.0)


# ---------------------------------------------------------------------------
# SCM
# ---------------------------------------------------------------------------

def test_scm_hand_case():
    # columns (1,0), (0,1), (-1,-1): mean is zero, sum of outer products
    # is [[2,1],[1,2]], divided by N-1 = 2.
    trial = make_trial([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    assert_allclose(est.scm(trial), [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)


def test_scm_matches_matrix_notation_form():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 60))
    trial = make_trial(x)
    n = 60
    centering = np.eye(n) - np.ones((n, n)) / n
    expected = x @ centering @ x.T / (n - 1)
    assert np.linalg.norm(est.scm(trial) - expected) < 1e-10


def test_scm_law_of_large_numbers():
    rng = np.random.default_rng(1)
    trial = make_trial(rng.standard_normal((4, 100_000)))
    assert np.linalg.norm(est.scm(trial) - np.eye(4)) < 0.05


def test_scm_constant_signal_is_zero_and_flagged():
    trial = make_trial(np.ones((3, 10)))
    with pytest.warns(est.RankDeficientCovarianceWarning):
        cov = est.scm(trial)
    assert_allclose(cov, np.zeros((3, 3)), atol=1e-15)


def test_scm_needs_two_samples():
    with pytest.raises(ValidationError):
        est.scm(make_trial(np.ones((3, 1))))


def test_scm_rank_deficiency_flag_for_few_samples():
    rng = np.random.default_rng(2)
    trial = make_trial(rng.standard_normal((6, 4)))  # N <= C
    with pytest.warns(est.RankDeficientCovarianceWarning):
        cov = est.scm(trial)
    w = np.linalg.eigvalsh(cov)
    assert w[0] < 1e-10 * w[-1]


def test_scm_symmetric():
    rng = np.random.default_rng(3)
    cov = est.scm(make_trial(rng.standard_normal((5, 40))))
    assert np.linalg.norm(cov - cov.T) <= 1e-10 * np.linalg.norm(cov)


# ---------------------------------------------------------------------------
# NSCM
# ---------------------------------------------------------------------------

def _nscm_bruteforce(x):
    """Direct loop evaluation of the normalized covariance."""
    c, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    out = np.zeros((c, c))
    for i in range(n):
        col = xc[:, i]
        out += np.outer(col, col) / (col @ col)
    return (c / n) * out


def test_nscm_unit_norm_columns():
    # centered columns with unit norm: normalization is the identity
    x = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    trial = make_trial(x)
    xc = x - x.mean(axis=1, keepdims=True)
    expected = (2 / 4) * sum(np.outer(xc[:, i], xc[:, i]) for i in range(4))
    assert_allclose(est.nscm(trial), expected, atol=1e-12)


def test_nscm_scale_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 50))
    # the degenerate-sample rule is relative to the trial's own energy,
    # so data in volts (1e-6) or smaller is not rejected
    for scale in (10.0, 1e-9, 1e-6, 1e6):
        assert_allclose(est.nscm(make_trial(x)),
                        est.nscm(make_trial(scale * x)), atol=1e-12)


def test_nscm_hand_oracle():
    x = np.array([[1.0, 2.0], [1.0, -1.0]])
    got = est.nscm(make_trial(x))
    assert_allclose(got, _nscm_bruteforce(x), atol=1e-12)
    # frozen values from the brute-force oracle above
    assert_allclose(got, [[0.4, -0.8], [-0.8, 1.6]], atol=1e-12)


def test_nscm_random_matches_bruteforce():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 30))
    assert_allclose(est.nscm(make_trial(x)), _nscm_bruteforce(x), atol=1e-12)


def test_nscm_degenerate_sample_names_index():
    # row means are (1, 0), so the centered columns 0 and 3 are exactly
    # zero; the error must name the first offending index.
    z = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 2.0, -2.0, 0.0]])
    with pytest.raises(ValidationError, match="index 0"):
        est.nscm(make_trial(z))
    # a trial of zeros has no energy to be relative to, and is rejected
    with pytest.raises(ValidationError, match="index 0"):
        est.nscm(make_trial(np.zeros((3, 10))))


# ---------------------------------------------------------------------------
# shrinkage
# ---------------------------------------------------------------------------

def test_shrinkage_kappa_zero_equals_scm():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 50))
    spec = est.EstimatorSpec(kind="shrinkage", target="schafer", kappa=0.0)
    assert_allclose(est.estimate(make_trial(x), spec),
                    est.scm(make_trial(x)), atol=1e-14)


def test_shrinkage_kappa_to_one_limit_schafer():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 50))
    trial = make_trial(x)
    cov = est.scm(trial)
    diag = np.diag(np.diag(cov))
    for kappa in (0.9, 0.999):
        spec = est.EstimatorSpec(kind="shrinkage", target="schafer", kappa=kappa)
        shrunk = est.estimate(trial, spec)
        # algebraic identity: shrunk - diag = (1 - kappa)(scm - diag)
        assert_allclose(shrunk - diag, (1 - kappa) * (cov - diag), atol=1e-12)


@pytest.mark.parametrize("target", ["ledoit", "blankertz"])
@pytest.mark.parametrize("kappa", [0.1, 0.5])
def test_shrinkage_identity_target_improves_conditioning(target, kappa):
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.standard_normal((4, 12))
        trial = make_trial(x)
        spec = est.EstimatorSpec(kind="shrinkage", target=target, kappa=kappa)
        assert condition_ratio(est.estimate(trial, spec)) < \
            condition_ratio(est.scm(trial))


def test_shrinkage_identity_target_preserves_eigenvectors():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 80))
    trial = make_trial(x)
    cov = est.scm(trial)
    spec = est.EstimatorSpec(kind="shrinkage", target="ledoit", kappa=0.3)
    shrunk = est.estimate(trial, spec)
    _, u0 = np.linalg.eigh(cov)
    _, u1 = np.linalg.eigh(shrunk)
    # distinct eigenvalues almost surely: vectors match up to sign
    align = np.abs(np.sum(u0 * u1, axis=0))
    assert np.all(align > 1.0 - 1e-6)


def test_shrinkage_target_definitions():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 40))
    cov = est.scm(make_trial(x))
    ledoit = est.shrinkage_target(cov, "ledoit")
    assert_allclose(ledoit, np.trace(cov) * np.eye(4), atol=1e-14)
    blank = est.shrinkage_target(cov, "blankertz")
    assert_allclose(blank, np.trace(cov) / 10.0 * np.eye(4), atol=1e-14)  # M = 4*5/2
    blank_c = est.shrinkage_target(cov, "blankertz", blankertz_scale="channels")
    assert_allclose(blank_c, np.trace(cov) / 4.0 * np.eye(4), atol=1e-14)
    schafer = est.shrinkage_target(cov, "schafer")
    assert_allclose(schafer, np.diag(np.diag(cov)), atol=1e-14)


def test_analytic_kappa_in_range_and_shrinks_more_for_fewer_samples():
    # correlated channels: the diagonal target is biased, so the optimal
    # weight must fall as evidence for the off-diagonals accumulates
    rng = np.random.default_rng(11)
    mix = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    x_long = mix @ rng.standard_normal((4, 2000))
    x_short = x_long[:, :20]
    spec = est.EstimatorSpec(kind="shrinkage", target="schafer")
    _, k_long = est.shrinkage_with_kappa(make_trial(x_long), spec)
    _, k_short = est.shrinkage_with_kappa(make_trial(x_short), spec)
    assert 0.0 <= k_long < 1.0 and 0.0 <= k_short < 1.0
    assert k_short > k_long


def test_shrinkage_with_kappa_reports_weight():
    rng = np.random.default_rng(12)
    trial = make_trial(rng.standard_normal((3, 30)))
    spec = est.EstimatorSpec(kind="shrinkage", target="schafer", kappa=0.25)
    _, kappa = est.shrinkage_with_kappa(trial, spec)
    assert kappa == 0.25
    _, kappa_auto = est.shrinkage_with_kappa(
        trial, est.EstimatorSpec(kind="shrinkage", target="schafer"))
    assert 0.0 <= kappa_auto < 1.0


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

FP_TIGHT = est.EstimatorSpec(kind="fixed_point", fp_tolerance=1e-10)


def _fp_step_bruteforce(x, sigma):
    """Direct loop evaluation of one fixed-point iteration."""
    c, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    inv = np.linalg.inv(sigma)
    out = np.zeros((c, c))
    for i in range(n):
        col = xc[:, i]
        out += np.outer(col, col) / (col @ inv @ col)
    return (c / n) * out


def test_fixed_point_one_step_hand_oracle():
    x = np.array([[1.0, 2.0, -1.0, 0.5], [0.0, 1.0, 1.0, -2.0]])
    trial = make_trial(x)
    sigma0 = est.nscm(trial)
    xc = x - x.mean(axis=1, keepdims=True)
    got = est._fixed_point_step(xc, sigma0)
    assert np.linalg.norm(got - _fp_step_bruteforce(x, sigma0)) < 1e-10


def test_fixed_point_is_stationary():
    rng = np.random.default_rng(13)
    trial = make_trial(rng.standard_normal((3, 200)))
    sigma = est.fixed_point(trial, FP_TIGHT)
    xc = trial.values - trial.values.mean(axis=1, keepdims=True)
    again = est._fixed_point_step(xc, sigma)
    assert np.linalg.norm(again - sigma) / np.linalg.norm(sigma) < 1e-9


def test_fixed_point_gaussian_consistency():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 4))
    true_cov = a @ a.T + np.eye(4)
    chol = np.linalg.cholesky(true_cov)
    x = chol @ rng.standard_normal((4, 10_000))
    trial = make_trial(x)
    fp = est.fixed_point(trial, est.EstimatorSpec(kind="fixed_point"))
    scm = est.scm(trial)
    fp_n = fp / np.trace(fp)
    scm_n = scm / np.trace(scm)
    assert np.linalg.norm(fp_n - scm_n) / np.linalg.norm(scm_n) < 0.05


def test_fixed_point_scale_invariant():
    # The iteration map and its NSCM initializer are both invariant to a
    # global rescaling of the trial, so the estimate is too.
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 100))
    f1 = est.fixed_point(make_trial(x), FP_TIGHT)
    for scale in (7.5, 1e-9, 1e-6, 1e6):
        f2 = est.fixed_point(make_trial(scale * x), FP_TIGHT)
        assert np.linalg.norm(f1 - f2) / np.linalg.norm(f1) < 1e-8


def test_fixed_point_needs_more_samples_than_channels():
    rng = np.random.default_rng(16)
    with pytest.raises(ValidationError):
        est.fixed_point(make_trial(rng.standard_normal((4, 4))),
                        est.EstimatorSpec(kind="fixed_point"))


def test_fixed_point_nonconvergence_error():
    rng = np.random.default_rng(17)
    trial = make_trial(rng.standard_normal((3, 50)))
    with pytest.raises(ConvergenceError) as err:
        est.fixed_point(trial, est.EstimatorSpec(
            kind="fixed_point", fp_tolerance=1e-15, fp_max_iterations=2))
    assert err.value.last_iterate is not None


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------

def test_spec_from_name():
    assert est.spec_from_name("scm").kind == "scm"
    assert est.spec_from_name("fixed-point").kind == "fixed_point"
    spec = est.spec_from_name("schafer", kappa=0.2)
    assert spec.kind == "shrinkage" and spec.target == "schafer"
    assert spec.kappa == 0.2
    with pytest.raises(ValidationError):
        est.spec_from_name("banana")


def test_spec_validation():
    with pytest.raises(ValidationError):
        est.EstimatorSpec(kind="shrinkage", target="schafer", kappa=1.0)
    with pytest.raises(ValidationError):
        est.EstimatorSpec(kind="nope")
    with pytest.raises(ValidationError):
        est.EstimatorSpec(kind="shrinkage", target="nope")


@pytest.mark.parametrize("iterations", [0, -1])
def test_spec_rejects_fixed_point_cap_below_one(iterations):
    with pytest.raises(ValidationError, match="fp_max_iterations"):
        est.EstimatorSpec(kind="fixed_point", fp_max_iterations=iterations)


def test_estimate_dispatch():
    rng = np.random.default_rng(18)
    trial = make_trial(rng.standard_normal((3, 60)))
    for name in ("scm", "nscm", "schafer", "ledoit", "blankertz", "fixed_point"):
        cov = est.estimate(trial, est.spec_from_name(name))
        assert cov.shape == (3, 3)
        assert np.linalg.norm(cov - cov.T) <= 1e-10 * np.linalg.norm(cov)


# ---------------------------------------------------------------------------
# estimates from summed block moments
# ---------------------------------------------------------------------------

MOMENT_SPECS = {
    "scm": est.EstimatorSpec(kind="scm"),
    "ledoit": est.spec_from_name("ledoit"),
    "blankertz": est.spec_from_name("blankertz"),
    "blankertz-channels": est.spec_from_name(
        "blankertz", blankertz_scale="channels"),
    "schafer": est.spec_from_name("schafer"),
    "schafer-0.3": est.spec_from_name("schafer", kappa=0.3),
}


def block_moments(values, cuts):
    """The summed Moments of ``values`` split at the columns ``cuts``."""
    blocks = np.split(values, sorted(cuts), axis=1)
    return sum((est.Moments.of(b) for b in blocks[1:]),
               est.Moments.of(blocks[0]))


# one live window (8 channels x 3 bands, 921 samples), at the scales of
# volts, of arbitrary units and of millivolts, filtered (zero mean) or
# raw with a DC offset of up to a few times each channel's spread
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3]),
       offset=st.sampled_from([0.0, 3.0]),
       cuts=st.lists(st.integers(1, 920), max_size=20, unique=True))
@pytest.mark.parametrize("name", sorted(MOMENT_SPECS))
def test_moments_of_blocks_estimate_the_window(name, seed, scale, offset,
                                               cuts):
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.5, 2.0, (24, 1))
    values = scale * (spread * rng.standard_normal((24, 921))
                      + offset * spread * rng.standard_normal((24, 1)))
    moments = block_moments(values, cuts)
    assert (moments.channels, moments.samples) == (24, 921)
    spec = MOMENT_SPECS[name]
    expected = est.estimate(make_trial(values), spec)
    got = est.estimate(moments, spec)
    assert np.linalg.norm(got - expected) <= \
        1e-12 * np.linalg.norm(expected)


def test_moments_add_the_sums_of_two_windows():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((3, 10))
    whole = est.Moments.of(x)
    parts = est.Moments.of(x[:, :4]) + est.Moments.of(x[:, 4:])
    assert whole.sums.shape == (7, 7)
    assert_allclose(parts.sums, whole.sums, rtol=1e-14, atol=1e-14)
    z = np.vstack([np.ones(10), x, x * x])
    assert_allclose(whole.sums, z @ z.T, rtol=1e-14)


def test_analytic_kappa_from_moments_matches_the_trial():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 40))
    spec = est.spec_from_name("schafer")
    _, kappa = est.shrinkage_with_kappa(make_trial(x), spec)
    _, from_moments = est.shrinkage_with_kappa(est.Moments.of(x), spec)
    assert 0.0 < kappa < 1.0
    assert from_moments == pytest.approx(kappa, rel=1e-12)


@pytest.mark.parametrize("name", ["nscm", "fixed_point"])
def test_sample_weighted_estimators_refuse_moments(name):
    rng = np.random.default_rng(32)
    moments = est.Moments.of(rng.standard_normal((3, 60)))
    with pytest.raises(ValidationError, match="needs the samples"):
        est.estimate(moments, est.spec_from_name(name))


def test_moments_of_one_sample_are_refused():
    moments = est.Moments.of(np.ones((3, 1)))
    for spec in MOMENT_SPECS.values():
        with pytest.raises(ValidationError, match="at least 2 samples"):
            est.estimate(moments, spec)


# ---------------------------------------------------------------------------
# stacked Moments of equal windows
# ---------------------------------------------------------------------------

STACK_SPECS = {"scm": est.EstimatorSpec(kind="scm")} | {
    f"{target}-{scale}-{kappa}": est.spec_from_name(
        target, kappa=kappa, blankertz_scale=scale)
    for target in est.SHRINKAGE_TARGETS
    for scale in ("matrix_space", "channels")
    for kappa in (None, 0.3)}


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), windows=st.integers(1, 6),
       samples=st.integers(2, 80))
@pytest.mark.parametrize("name", sorted(STACK_SPECS))
def test_stacked_moments_estimate_each_window_bitwise(name, seed, windows,
                                                      samples):
    # a stack's estimates and weights are the per-window calls, bit for bit
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((windows, 6, samples)) \
        * rng.uniform(0.1, 10.0, (windows, 6, 1))
    alone = [est.Moments.of(v) for v in values]
    stack = est.Moments(np.array([m.sums for m in alone]))
    assert (stack.channels, stack.samples) == (6, windows * samples)
    spec = STACK_SPECS[name]
    with warnings.catch_warnings():
        # windows of fewer samples than channels are rank deficient
        warnings.simplefilter("ignore", est.RankDeficientCovarianceWarning)
        got = est.estimate(stack, spec)
        expected = [est.estimate(m, spec) for m in alone]
    assert got.shape == (windows, 6, 6)
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    if spec.kind == "shrinkage":
        _, kappa = est.shrinkage_with_kappa(stack, spec)
        assert np.broadcast_to(kappa, windows).tolist() == \
            [est.shrinkage_with_kappa(m, spec)[1] for m in alone]


def test_stacked_moments_warn_once_per_rank_deficient_window():
    rng = np.random.default_rng(34)
    values = rng.standard_normal((3, 4, 60))
    values[1, 3] = values[1, 0]
    stack = est.Moments(np.array([est.Moments.of(v).sums for v in values]))
    with pytest.warns(est.RankDeficientCovarianceWarning) as caught:
        est.scm(stack)
    assert len(caught) == 1


def test_stacked_moments_of_unequal_windows_are_refused():
    rng = np.random.default_rng(35)
    stack = est.Moments(np.array([
        est.Moments.of(rng.standard_normal((3, n))).sums for n in (40, 41)]))
    for spec in STACK_SPECS.values():
        with pytest.raises(ValidationError, match="windows of one length"):
            est.estimate(stack, spec)


def test_scm_of_rank_deficient_moments_warns():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((3, 60))
    x[2] = x[0]
    with pytest.warns(est.RankDeficientCovarianceWarning):
        est.scm(est.Moments.of(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", est.RankDeficientCovarianceWarning)
        est.scm(est.Moments.of(rng.standard_normal((3, 60))))
