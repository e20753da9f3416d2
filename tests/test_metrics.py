import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdbci import manifold, metrics, synthgen
from spdbci.errors import ValidationError
from spdbci.estimators import EstimatorSpec

from conftest import random_spd


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_all_correct():
    assert metrics.accuracy([1, 2, 3], [1, 2, 3]) == 100.0


def test_accuracy_half():
    assert metrics.accuracy([1, 2, 3, 4], [1, 2, 4, 3]) == 50.0


def test_accuracy_order_independent():
    rng = np.random.default_rng(0)
    pred = list(rng.integers(1, 5, size=40))
    truth = list(rng.integers(1, 5, size=40))
    base = metrics.accuracy(pred, truth)
    order = rng.permutation(40)
    assert metrics.accuracy([pred[i] for i in order],
                            [truth[i] for i in order]) == base


def test_accuracy_empty_rejected():
    with pytest.raises(ValidationError):
        metrics.accuracy([], [])
    with pytest.raises(ValidationError):
        metrics.accuracy([1], [1, 2])


# ---------------------------------------------------------------------------
# information transfer rate
# ---------------------------------------------------------------------------

def test_itr_perfect_four_class():
    assert metrics.itr(1.0, 4, 60.0) == pytest.approx(120.0, abs=1e-12)


def test_itr_chance_level_is_zero():
    assert metrics.itr(0.25, 4, 60.0) == pytest.approx(0.0, abs=1e-12)
    assert metrics.itr(0.25, 4, 10.0) == pytest.approx(0.0, abs=1e-12)


def test_itr_half_accuracy_oracle():
    # direct high-precision evaluation of the bits-per-selection formula
    a, k = 0.5, 4
    bits = math.log2(k) + a * math.log2(a) + (1 - a) * math.log2((1 - a) / (k - 1))
    expected = bits * 10.0
    assert metrics.itr(0.5, 4, 10.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2.075187496394219, rel=1e-12)


def test_itr_monotone_above_chance():
    grid = np.linspace(0.25, 1.0, 31)
    values = [metrics.itr(a, 4, 12.0) for a in grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_itr_validation():
    with pytest.raises(ValidationError):
        metrics.itr(1.5, 4, 60.0)
    with pytest.raises(ValidationError):
        metrics.itr(0.5, 1, 60.0)


# ---------------------------------------------------------------------------
# integrated discrimination improvement
# ---------------------------------------------------------------------------

def test_idi_self_comparison_is_zero():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, size=(10, 4))
    truth = rng.integers(1, 5, size=10)
    assert metrics.idi(scores, scores, truth) == 0.0


def test_idi_perfect_vs_chance():
    truth = np.array([1, 2, 3, 4, 1, 2])
    perfect = np.zeros((6, 4))
    perfect[np.arange(6), truth - 1] = 1.0
    chance = np.full((6, 4), 0.25)
    assert metrics.idi(perfect, chance, truth) == pytest.approx(1.0)


def test_idi_antisymmetry():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 1, size=(12, 4))
    b = rng.uniform(0, 1, size=(12, 4))
    truth = rng.integers(1, 5, size=12)
    assert metrics.idi(a, b, truth) == pytest.approx(-metrics.idi(b, a, truth))


def test_idi_validation():
    with pytest.raises(ValidationError):
        metrics.idi(np.zeros((2, 4)), np.zeros((3, 4)), np.array([1, 2]))
    with pytest.raises(ValidationError):
        metrics.idi(np.zeros((0, 4)), np.zeros((0, 4)), np.array([], dtype=int))


def test_scores_from_distances():
    scores = metrics.scores_from_distances(np.array([1.0, 3.0, 4.0, 2.0]))
    assert scores.sum() == pytest.approx(1.0)
    assert np.argmax(scores) == 0  # nearest class scores highest
    with pytest.raises(ValidationError):
        metrics.scores_from_distances(np.array([1.0]))


# ---------------------------------------------------------------------------
# tangent embedding
# ---------------------------------------------------------------------------

def test_embedding_identical_matrices_at_origin():
    rng = np.random.default_rng(3)
    cov = random_spd(rng, 4)
    emb = metrics.tangent_embed([cov.copy() for _ in range(5)])
    assert np.linalg.norm(emb.coords) < 1e-9


def test_embedding_is_centered():
    rng = np.random.default_rng(4)
    covs = [random_spd(rng, 4) for _ in range(12)]
    emb = metrics.tangent_embed(covs)
    assert np.linalg.norm(emb.coords.mean(axis=0)) < 1e-9


def test_vectorization_preserves_tangent_norms():
    rng = np.random.default_rng(5)
    covs = [random_spd(rng, 4) for _ in range(8)]
    base = manifold.karcher_mean(covs)
    tangents = [manifold.log_map(base, c) for c in covs]
    vecs = [metrics._upper_vec(t) for t in tangents]
    for i in range(len(covs)):
        for j in range(i + 1, len(covs)):
            direct = np.linalg.norm(tangents[i] - tangents[j])
            vectorized = np.linalg.norm(vecs[i] - vecs[j])
            assert abs(direct - vectorized) < 1e-9


def test_embedding_needs_three_matrices():
    rng = np.random.default_rng(6)
    with pytest.raises(ValidationError):
        metrics.tangent_embed([random_spd(rng, 3), random_spd(rng, 3)])


def test_embedding_projects_extra_points():
    rng = np.random.default_rng(7)
    covs = [random_spd(rng, 3) for _ in range(6)]
    emb = metrics.tangent_embed(covs)
    extra = emb.project([covs[0]])
    assert_allclose(extra[0], emb.coords[0], atol=1e-9)


def test_embedding_csv(tmp_path):
    rng = np.random.default_rng(8)
    covs = [random_spd(rng, 3) for _ in range(5)]
    emb = metrics.tangent_embed(covs, labels=[1, 1, 2, 2, 3])
    metrics.write_embedding_csv(emb, tmp_path / "e.csv", centers=[covs[0]])
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines[0] == "kind,label,x,y"
    assert len(lines) == 1 + 5 + 1
    assert lines[-1].startswith("center,1,")


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_inputs():
    ts = synthgen.generate(
        synthgen.GenConfig(trials_per_class=6, snr_db=30.0, seed=2,
                           trial_seconds=5.0))
    from spdbci.mdrm import PreprocSpec
    pre = PreprocSpec(stim_freqs=tuple(ts.meta["stim_freqs"]),
                      sample_rate=ts.sample_rate)
    return ts, pre


def run_small_bench(ts, pre, seed=0, threads=1, lengths=(1.0, 5.0), reps=3):
    config = metrics.BenchConfig(
        replications=reps,
        trial_lengths_seconds=lengths,
        estimators=(EstimatorSpec(kind="scm"),
                    EstimatorSpec(kind="shrinkage", target="schafer")),
        seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return metrics.run_benchmark(ts, config, pre, threads=threads)


def test_benchmark_high_snr_accuracy(bench_inputs):
    ts, pre = bench_inputs
    report = run_small_bench(ts, pre)
    for row in report.rows:
        if row.length_seconds == 5.0:
            assert row.acc_mean >= 90.0


def test_benchmark_scm_idi_zero(bench_inputs):
    ts, pre = bench_inputs
    report = run_small_bench(ts, pre)
    for row in report.rows:
        if row.estimator == "scm":
            assert row.idi_mean == 0.0
        assert 0.0 <= row.acc_mean <= 100.0
        assert row.itr_mean >= 0.0


def test_benchmark_kappa_reported_for_shrinkage(bench_inputs):
    ts, pre = bench_inputs
    report = run_small_bench(ts, pre)
    for row in report.rows:
        if row.estimator == "schafer":
            assert row.kappa_mean is not None and 0 <= row.kappa_mean < 1
        else:
            assert row.kappa_mean is None


def test_benchmark_reproducible_and_thread_independent(bench_inputs, tmp_path):
    ts, pre = bench_inputs
    r1 = run_small_bench(ts, pre, threads=1)
    r2 = run_small_bench(ts, pre, threads=4)
    r1.to_json(tmp_path / "a.json")
    r2.to_json(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    r1.to_csv(tmp_path / "a.csv")
    r2.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_benchmark_accuracy_nondecreasing_in_length(bench_inputs):
    ts, pre = bench_inputs
    report = run_small_bench(ts, pre, lengths=(1.0, 2.0, 3.0, 4.0, 5.0), reps=2)
    rows = [r for r in report.rows if r.estimator == "schafer"]
    rows.sort(key=lambda r: r.length_seconds)
    accs = [r.acc_mean for r in rows]
    violations = sum(1 for a, b in zip(accs, accs[1:]) if b < a - 1e-9)
    assert violations <= 1


def test_benchmark_short_crop_shrinkage_wins(bench_inputs):
    ts, pre = bench_inputs
    report = run_small_bench(ts, pre, lengths=(0.5,), reps=5)
    rows = {r.estimator: r for r in report.rows}
    assert rows["schafer"].acc_mean >= rows["scm"].acc_mean
    assert rows["schafer"].cond_mean < rows["scm"].cond_mean


def test_benchmark_infeasible_length_rejected(bench_inputs):
    ts, pre = bench_inputs
    config = metrics.BenchConfig(replications=1, trial_lengths_seconds=(10.0,),
                                 seed=0)
    with pytest.raises(ValidationError):
        metrics.run_benchmark(ts, config, pre)


def test_benchmark_csv_columns(bench_inputs, tmp_path):
    ts, pre = bench_inputs
    report = run_small_bench(ts, pre)
    report.to_csv(tmp_path / "bench.csv")
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == ("estimator,length_s,acc_mean,acc_std,itr_mean,"
                        "itr_std,cond_mean,idi_mean,kappa_mean,"
                        "unconverged_means,unconverged_estimates")
    assert len(lines) == 1 + len(report.rows)


def test_benchmark_scores_stalled_fixed_point_estimate():
    # One 0.5 s crop of this set needs more fixed-point iterations than
    # the default cap of 200.
    ts = synthgen.generate(synthgen.GenConfig(trials_per_class=8, seed=13))
    config = metrics.BenchConfig(
        replications=2, trial_lengths_seconds=(0.5,),
        estimators=(EstimatorSpec(kind="fixed_point"),), seed=13)
    assert config.estimators[0].fp_max_iterations == 200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = metrics.run_benchmark(ts, config)
    (row,) = report.rows
    assert row.estimator == "fixed_point"
    assert row.unconverged_estimates == 1
    assert 0.0 <= row.acc_mean <= 100.0 and np.isfinite(row.idi_mean)


@pytest.mark.parametrize("pair", [
    (EstimatorSpec(target="schafer"),
     EstimatorSpec(target="schafer", kappa=0.9)),
    (EstimatorSpec(kind="fixed_point", fp_max_iterations=1),
     EstimatorSpec(kind="fixed_point")),
], ids=["schafer", "fixed_point"])
def test_benchmark_scores_same_label_specs_apart(bench_inputs, pair):
    ts, pre = bench_inputs

    def rows(specs):
        config = metrics.BenchConfig(replications=2,
                                     trial_lengths_seconds=(1.0,),
                                     estimators=specs, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return metrics.run_benchmark(ts, config, pre).rows

    together = rows(pair)
    assert together == rows(pair[:1]) + rows(pair[1:])
    if pair[0].kind == "fixed_point":
        assert together[0].unconverged_estimates == len(ts.trials)
        assert together[1].unconverged_estimates == 0


def test_benchmark_holds_one_filtered_trial_at_a_time():
    # 64 trials at one 5 s length: all of them filtered at once would be
    # 64 x 24 x 1280 floats, about 15.7 MB
    import tracemalloc

    from spdbci.mdrm import PreprocSpec

    ts = synthgen.generate(synthgen.GenConfig(trials_per_class=16, seed=0))
    pre = PreprocSpec.for_trial_set(ts)
    config = metrics.BenchConfig(replications=1, trial_lengths_seconds=(5.0,),
                                 estimators=(EstimatorSpec(),), seed=0)
    filtered_bytes = (len(ts.trials) * len(pre.stim_freqs)
                      * ts.trials[0].channels * int(5.0 * ts.sample_rate) * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # imports and the filter design are paid before tracing starts
        metrics.run_benchmark(ts, metrics.BenchConfig(
            replications=1, trial_lengths_seconds=(0.5,),
            estimators=config.estimators), pre)
        tracemalloc.start()
        try:
            metrics.run_benchmark(ts, config, pre)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < filtered_bytes / 4


def test_benchmark_estimates_an_scm_spec_once(bench_inputs, tmp_path,
                                              capsys):
    # the scm spec is scored on the baseline's estimates, so it adds no
    # rank-deficient warning of its own
    from spdbci import cli
    from spdbci.estimators import RankDeficientCovarianceWarning

    ts, pre = bench_inputs

    def deficient(specs):
        config = metrics.BenchConfig(replications=1,
                                     trial_lengths_seconds=(0.5,),
                                     estimators=specs, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RankDeficientCovarianceWarning)
            metrics.run_benchmark(ts, config, pre)
        return sum(issubclass(w.category, RankDeficientCovarianceWarning)
                   for w in caught)

    alone = deficient((EstimatorSpec(),))
    assert 0 < alone <= len(ts.trials)
    assert deficient((EstimatorSpec(kind="scm"), EstimatorSpec())) == alone
    synthgen.save(ts, tmp_path / "data")
    assert cli.main(["bench", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "bench"),
                     "--estimators", "scm,schafer", "--lengths", "0.5",
                     "--replications", "1"]) == 0
    assert f"note: {alone} rank-deficient" in capsys.readouterr().err


def _reference_splits(ts, config):
    """The (train, test) indices of each replication, drawn as documented."""
    by_class = {}
    for i, lab in enumerate(ts.labels):
        by_class.setdefault(lab, []).append(i)
    rng = np.random.default_rng(config.seed)
    splits = []
    for _ in range(config.replications):
        train_idx, test_idx = [], []
        for cls in range(1, ts.class_count + 1):
            pool = by_class[cls]
            draw = rng.choice(pool, size=len(pool), replace=True)
            half = len(pool) - len(pool) // 2
            train_idx.extend(int(x) for x in draw[:half])
            test_idx.extend(int(x) for x in draw[half:])
        splits.append((train_idx, test_idx))
    return splits


def _reference_rows(ts, config, pre):
    """``run_benchmark``'s rows computed one split at a time: one Karcher
    mean per class and split, one distance call per test trial."""
    from spdbci.errors import ConvergenceError
    from spdbci.mdrm import preprocess_trial

    k = ts.class_count
    splits = _reference_splits(ts, config)

    def evaluate_split(train_idx, test_idx, covs):
        centers, stalled = [], 0
        for cls in range(1, k + 1):
            members = [covs[i] for i in train_idx if ts.labels[i] == cls]
            try:
                centers.append(manifold.karcher_mean(
                    members, config.mean_tolerance,
                    config.mean_max_iterations))
            except ConvergenceError as exc:
                centers.append(exc.last_iterate)
                stalled += 1
        dists = [manifold.distance(covs[i], np.asarray(centers))
                 for i in test_idx]
        return ([int(np.argmin(d)) + 1 for d in dists],
                np.array([metrics.scores_from_distances(d) for d in dists]),
                [ts.labels[i] for i in test_idx], stalled)

    rows = []
    for length in config.trial_lengths_seconds:
        trials = [preprocess_trial(metrics._crop(t, length), pre)
                  for t in ts.trials]
        scm_covs = metrics._estimate_all(trials, EstimatorSpec(kind="scm"))[0]
        scm_runs = [evaluate_split(tr, te, scm_covs) for tr, te in splits]
        for spec in config.estimators:
            covs, kappa, stalled_estimates = metrics._estimate_all(trials, spec)
            runs = [evaluate_split(tr, te, covs) for tr, te in splits]
            accs = [metrics.accuracy(p, t) for p, _, t, _ in runs]
            itrs = [metrics.itr(a / 100.0, k, 60.0 / length) for a in accs]
            rows.append((
                metrics.estimator_label(spec), float(length),
                float(np.mean(accs)), float(np.std(accs)),
                float(np.mean(itrs)), float(np.std(itrs)),
                float(np.mean([manifold.condition_ratio(c) for c in covs])),
                float(np.mean([metrics.idi(s, base[1], t) for (_, s, t, _),
                               base in zip(runs, scm_runs)])),
                kappa, sum(run[3] for run in runs), stalled_estimates))
    return rows


def test_benchmark_rows_match_per_split_reference():
    # 3 trials per class: each replication trains on 2 draws per class
    # and tests on 1, so repeats are common; at this tolerance and cap
    # some 0.5 s means stall and the rest converge
    from dataclasses import astuple

    from spdbci.mdrm import PreprocSpec

    ts = synthgen.generate(synthgen.GenConfig(trials_per_class=3, seed=5))
    pre = PreprocSpec.for_trial_set(ts)
    config = metrics.BenchConfig(
        replications=5, trial_lengths_seconds=(0.5, 2.0),
        estimators=(EstimatorSpec(kind="nscm"), EstimatorSpec(kind="scm"),
                    EstimatorSpec(target="ledoit")),
        seed=5, mean_tolerance=1e-10, mean_max_iterations=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = metrics.run_benchmark(ts, config, pre)
        reference = _reference_rows(ts, config, pre)
    assert [astuple(row) for row in report.rows] == reference
    stalled = [row.unconverged_means for row in report.rows]
    assert sum(stalled) > 0
    assert max(stalled) < config.replications * ts.class_count
    assert any(len(set(train)) < len(train)
               for train, _ in _reference_splits(ts, config))
