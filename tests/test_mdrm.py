import numpy as np
import pytest

from spdbci import manifold, mdrm, preprocessing, synthgen
from spdbci.errors import ValidationError
from spdbci.estimators import EstimatorSpec, Trial
from spdbci.mdrm import ClassModel, PreprocSpec
from spdbci.synthgen import GenConfig
from spdbci.preprocessing import BandpassFilterBank, FilterSpec, \
    design_bandpass, extend_trial

from conftest import random_spd


def small_set(seed=0, trials_per_class=2, snr_db=30.0, **kw):
    cfg = synthgen.GenConfig(trials_per_class=trials_per_class, snr_db=snr_db,
                             seed=seed, **kw)
    return synthgen.generate(cfg), cfg


def preproc_for(cfg, latency=0.0):
    return PreprocSpec(stim_freqs=cfg.stim_freqs, sample_rate=cfg.sample_rate,
                       latency_seconds=latency)


# ---------------------------------------------------------------------------
# filter designs shared through the preprocessing spec
# ---------------------------------------------------------------------------

def test_preproc_spec_sections_equal_fresh_designs():
    pre = PreprocSpec((13.0, 17.0, 21.0), 256.0, half_bandwidth=1.5,
                      filter_order=6)
    assert pre.sos is pre.sos
    assert len(pre.sos) == 3
    for freq, sos in zip(pre.stim_freqs, pre.sos):
        fresh = design_bandpass(FilterSpec(freq, 1.5, 6, 256.0))
        assert sos.dtype == fresh.dtype and sos.shape == fresh.shape
        assert sos.tobytes() == fresh.tobytes()


def test_banks_from_one_spec_keep_independent_state():
    pre = PreprocSpec((13.0, 17.0, 21.0), 256.0)
    rng = np.random.default_rng(5)
    trials = [rng.standard_normal((4, 700)) for _ in range(2)]
    banks = [BandpassFilterBank(pre.stim_freqs, 4, 256.0, pre.half_bandwidth,
                                pre.filter_order, pre.sos) for _ in trials]
    for bank in banks:
        assert all(own is not shared and np.array_equal(own, shared)
                   for own, shared in zip(bank.sos, pre.sos))
    outs = [[], []]
    for start in range(0, 700, 90):
        for out, bank, values in zip(outs, banks, trials):
            out.append(bank.process(values[:, start:start + 90]))
    for out, values in zip(outs, trials):
        alone = extend_trial(Trial(values, 256.0), pre.stim_freqs)
        assert np.array_equal(np.hstack(out), alone.values)


def test_bank_rejects_designs_for_other_frequencies():
    pre = PreprocSpec((13.0, 17.0), 256.0)
    with pytest.raises(ValidationError, match="2 filter designs for 3"):
        BandpassFilterBank((13.0, 17.0, 21.0), 4, 256.0, sos=pre.sos)


def test_train_designs_each_band_once(monkeypatch):
    ts, cfg = small_set()
    designed = []
    original = preprocessing.design_bandpass

    def counting(spec):
        designed.append(spec.center_freq)
        return original(spec)

    monkeypatch.setattr(preprocessing, "design_bandpass", counting)
    mdrm.train(ts, EstimatorSpec(), preproc_for(cfg))
    assert len(ts.trials) > 1
    assert designed == list(cfg.stim_freqs)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_single_trial_per_class_centers_equal_covariances():
    ts, cfg = small_set(trials_per_class=1)
    pre = preproc_for(cfg)
    spec = EstimatorSpec(kind="scm")
    model, report = mdrm.train(ts, spec, pre)
    assert report["trials"] == 4
    for cls in range(1, 5):
        idx = ts.labels.index(cls)
        cov = mdrm.trial_covariance(ts.trials[idx], pre, spec)
        assert np.linalg.norm(model.centers[cls - 1] - cov) < 1e-10


def test_training_is_deterministic():
    ts, cfg = small_set()
    pre = preproc_for(cfg)
    m1, _ = mdrm.train(ts, EstimatorSpec(), pre)
    m2, _ = mdrm.train(ts, EstimatorSpec(), pre)
    for a, b in zip(m1.centers, m2.centers):
        assert np.array_equal(a, b)


def test_missing_class_rejected():
    ts, cfg = small_set()
    keep = [i for i, lab in enumerate(ts.labels) if lab != 2]
    broken = ts.subset(keep)
    with pytest.raises(ValidationError, match="class 2"):
        mdrm.train(broken, EstimatorSpec(), preproc_for(cfg))


def test_centers_separate_from_within_class_spread():
    ts, cfg = small_set(trials_per_class=6, snr_db=40.0)
    pre = preproc_for(cfg)
    spec = EstimatorSpec()
    model, _ = mdrm.train(ts, spec, pre)
    covs = [mdrm.trial_covariance(t, pre, spec) for t in ts.trials]
    between = min(manifold.distance(a, b)
                  for i, a in enumerate(model.centers)
                  for b in model.centers[i + 1:])
    within = np.mean([manifold.distance(cov, model.centers[lab - 1])
                      for cov, lab in zip(covs, ts.labels)])
    assert between / within > 3.0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_exact_center_distance_zero():
    rng = np.random.default_rng(1)
    centers = tuple(random_spd(rng, 6) for _ in range(3))
    model = ClassModel(centers, EstimatorSpec(),
                       PreprocSpec((13.0, 17.0), 256.0))
    label, dists = mdrm.classify_covariance(centers[1], model)
    assert label == 2
    assert dists[1] < 1e-9
    # argmin is invariant under monotone transforms of the distances
    assert int(np.argmin(np.exp(dists))) + 1 == label


def test_tie_break_prefers_lowest_class():
    rng = np.random.default_rng(2)
    center = random_spd(rng, 4)
    for k, tied in ((2, (0, 1)), (4, (1, 3)), (4, (0, 3))):
        centers = [random_spd(rng, 4, spread=2.0) + 10.0 * np.eye(4)
                   for _ in range(k)]
        for i in tied:
            centers[i] = center.copy()
        model = ClassModel(tuple(centers), EstimatorSpec(),
                           PreprocSpec((13.0,), 256.0))
        label, dists = mdrm.classify_covariance(center, model)
        assert label == tied[0] + 1
        assert dists[tied[0]] == dists[tied[1]]
        factored = manifold.FactoredStack(centers)
        assert np.array_equal(manifold.distance(center, factored), dists)


def test_train_then_classify_training_set_single_trial():
    ts, cfg = small_set(trials_per_class=1)
    pre = preproc_for(cfg)
    model, _ = mdrm.train(ts, EstimatorSpec(kind="scm"), pre)
    preds = [mdrm.classify(t, model)[0] for t in ts.trials]
    assert preds == ts.labels


def test_high_snr_held_out_accuracy(clean_set, default_preproc, schafer_spec):
    train, test = synthgen.stratified_split(clean_set, 8)
    model, _ = mdrm.train(train, schafer_spec, default_preproc)
    preds = [mdrm.classify(t, model)[0] for t in test.trials]
    acc = np.mean([p == t for p, t in zip(preds, test.labels)])
    assert acc >= 0.9


def test_classify_rejects_wrong_sample_rate():
    ts, cfg = small_set(trials_per_class=1)
    model, _ = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg))
    wrong = Trial(ts.trials[0].values, 512.0)
    with pytest.raises(ValidationError):
        mdrm.classify(wrong, model)


def test_classify_rejects_non_finite_trial():
    ts, cfg = small_set(trials_per_class=1)
    model, _ = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg))
    values = ts.trials[0].values.copy()
    values[2, 100] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        mdrm.classify(Trial(values, cfg.sample_rate), model)


def test_classify_covariance_dim_mismatch():
    ts, cfg = small_set(trials_per_class=1)
    model, _ = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg))
    with pytest.raises(ValidationError):
        mdrm.classify_covariance(np.eye(5), model)


def test_model_equivariance_under_channel_mixing():
    ts, cfg = small_set(trials_per_class=2, snr_db=10.0)
    pre = preproc_for(cfg)
    spec = EstimatorSpec(kind="scm")
    rng = np.random.default_rng(3)
    w = rng.standard_normal((8, 8)) + 0.8 * np.eye(8)

    mixed = synthgen.TrialSet(
        [Trial(w @ t.values, t.sample_rate) for t in ts.trials],
        list(ts.labels), dict(ts.meta))
    model0, _ = mdrm.train(ts, spec, pre)
    model1, _ = mdrm.train(mixed, spec, pre)

    big = np.kron(np.eye(3), w)  # block-diagonal action on stacked rows
    for c0, c1 in zip(model0.centers, model1.centers):
        expected = big @ c0 @ big.T
        assert np.linalg.norm(c1 - expected) / np.linalg.norm(expected) < 1e-6

    preds0 = [mdrm.classify(t, model0)[0] for t in ts.trials]
    preds1 = [mdrm.classify(t, model1)[0] for t in mixed.trials]
    assert preds0 == preds1


@pytest.mark.parametrize("kind", ["nscm", "fixed_point"])
def test_normalized_estimators_train_on_any_data_scale(kind):
    # the same recording in volts (1e-6) or nanovolts (1e3) trains the
    # same centers: both estimators are invariant to the trial's scale
    ts, cfg = small_set(trials_per_class=8, snr_db=GenConfig.snr_db)
    pre = preproc_for(cfg)
    spec = EstimatorSpec(kind=kind)
    model, _ = mdrm.train(ts, spec, pre)
    labels = [mdrm.classify(t, model)[0] for t in ts.trials]
    for scale in (1e-6, 1e3):
        scaled = synthgen.TrialSet(
            [Trial(scale * t.values, t.sample_rate) for t in ts.trials],
            list(ts.labels), dict(ts.meta))
        other, _ = mdrm.train(scaled, spec, pre)
        for c0, c1 in zip(model.centers, other.centers):
            assert np.linalg.norm(c1 - c0) / np.linalg.norm(c0) < 1e-9
        assert [mdrm.classify(t, other)[0] for t in scaled.trials] == labels


# ---------------------------------------------------------------------------
# potato filter
# ---------------------------------------------------------------------------

def test_potato_identical_matrices_all_kept():
    rng = np.random.default_rng(4)
    cov = random_spd(rng, 4)
    result = mdrm.potato_filter([cov.copy() for _ in range(6)])
    assert result.degenerate
    assert result.kept == tuple(range(6))
    assert result.rejected == ()


def test_potato_rejects_constructed_outlier():
    rng = np.random.default_rng(5)
    base = random_spd(rng, 4)
    cluster = [manifold.exp_map(base, 0.05 * (s + s.T) / 2)
               for s in (np.random.default_rng(i).standard_normal((4, 4))
                         for i in range(20))]
    radius = max(manifold.distance(base, c) for c in cluster)
    direction = np.eye(4)
    outlier = manifold.exp_map(base, 10.0 * radius * direction)
    result = mdrm.potato_filter(cluster + [outlier], z_threshold=2.5)
    assert 20 in result.rejected
    assert all(i in result.kept for i in range(20))


def test_potato_huge_threshold_keeps_all():
    rng = np.random.default_rng(6)
    covs = [random_spd(rng, 3) for _ in range(10)]
    result = mdrm.potato_filter(covs, z_threshold=1e6)
    assert result.kept == tuple(range(10))


def test_potato_rejection_monotone_in_threshold():
    rng = np.random.default_rng(7)
    covs = [random_spd(rng, 3, spread=1.5) for _ in range(15)]
    rejected = [len(mdrm.potato_filter(covs, z_threshold=z).rejected)
                for z in (0.5, 1.0, 1.5, 2.5, 4.0)]
    assert rejected == sorted(rejected, reverse=True)


def test_potato_needs_two_matrices():
    with pytest.raises(ValidationError):
        mdrm.potato_filter([np.eye(3)])


def test_train_with_potato_reports_per_class_rejections():
    ts, cfg = small_set(trials_per_class=4, snr_db=10.0)
    model, report = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg),
                               potato_z=1e6)
    assert report["potato"]["rejected"] == 0
    assert set(report["potato"]["rejected_by_class"]) == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_save_load_bit_exact(tmp_path):
    ts, cfg = small_set()
    model, _ = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg, latency=0.5))
    path = tmp_path / "model.mdrm"
    mdrm.save_model(model, path)
    back = mdrm.load_model(path)
    assert back.class_count == model.class_count
    assert back.estimator_spec == model.estimator_spec
    assert back.preproc_spec == model.preproc_spec
    assert back.mean_tolerance == model.mean_tolerance
    for a, b in zip(model.centers, back.centers):
        assert np.array_equal(a, b)


def test_centers_are_read_only_copies(tmp_path):
    ts, cfg = small_set(trials_per_class=1)
    model, _ = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg))
    given = [c.copy() for c in model.centers]
    rebuilt = ClassModel(tuple(given), model.estimator_spec,
                         model.preproc_spec)
    given[0][0, 0] += 1.0  # the caller's array, not the model's copy
    assert np.array_equal(rebuilt.centers[0], model.centers[0])
    factors = model.factors
    with pytest.raises(ValueError, match="read-only"):
        model.centers[0][0, 1] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        model.centers[0][:] = np.eye(model.dim)
    assert model.factors is factors
    # read-only centers still round-trip bit for bit
    path = mdrm.save_model(model, tmp_path / "model.mdrm")
    back = mdrm.load_model(path)
    assert all(np.array_equal(a, b)
               for a, b in zip(model.centers, back.centers))
    assert not back.centers[0].flags.writeable
    mdrm.save_model(back, tmp_path / "again.mdrm")
    assert (tmp_path / "again.mdrm").read_bytes() == path.read_bytes()


def test_estimator_spec_round_trips_through_model_file(tmp_path):
    spec = EstimatorSpec(kind="shrinkage", target="blankertz", kappa=0.1,
                         blankertz_scale="channels")
    pre = PreprocSpec((13.0, 17.0), 256.0, latency_seconds=0.5)
    centers = tuple(random_spd(np.random.default_rng(k), 4) for k in range(2))
    model = ClassModel(centers, spec, pre)
    back = mdrm.load_model(mdrm.save_model(model, tmp_path / "model.mdrm"))
    assert back.estimator_spec == spec
    assert back.preproc_spec == pre
    assert back.channels == 2


@pytest.mark.parametrize("defect", ["asymmetric", "negated", "nan"])
def test_load_rejects_non_spd_centers(tmp_path, defect):
    from spdbci.errors import ManifestError

    ts, cfg = small_set(trials_per_class=1)
    model, _ = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg))
    centers = [c.copy() for c in model.centers]
    if defect == "asymmetric":
        centers[1][0, 1] += 1.0
    elif defect == "negated":
        centers[1] = -centers[1]
    else:
        centers[1][2, 2] = np.nan
    with pytest.raises(ValidationError, match=r"centers\[1\]"):
        ClassModel(tuple(centers), model.estimator_spec, model.preproc_spec)
    # the same defect written over center 1's payload bytes of a good file
    path = mdrm.save_model(model, tmp_path / "model.mdrm")
    header, payload = path.read_bytes().split(b"\n", 1)
    size = 8 * model.dim * model.dim
    broken = tmp_path / "broken.mdrm"
    broken.write_bytes(header + b"\n" + payload[:size]
                       + centers[1].astype("<f8").tobytes()
                       + payload[2 * size:])
    with pytest.raises(ManifestError, match=r"centers\[1\]"):
        mdrm.load_model(broken)


def test_preproc_spec_needs_a_stimulus_frequency():
    with pytest.raises(ValidationError, match="stimulus frequency"):
        PreprocSpec(stim_freqs=(), sample_rate=256.0)


@pytest.mark.parametrize("centers, named", [
    ((), "nonempty"),
    ((np.eye(4), np.eye(2)), r"centers\[1\]"),
    ((np.eye(5), np.eye(5)), "dim 5 is not a multiple of the 2"),
], ids=["empty", "mixed-size", "dim-not-a-multiple"])
def test_model_is_refused_at_construction(centers, named):
    with pytest.raises(ValidationError, match=named):
        ClassModel(centers, EstimatorSpec(), PreprocSpec((13.0, 17.0), 256.0))


def test_load_refuses_dim_not_a_multiple_of_the_stimulus_frequencies(
        tmp_path):
    import json
    from spdbci.errors import ManifestError

    centers = tuple(random_spd(np.random.default_rng(k), 5) for k in range(2))
    model = ClassModel(centers, EstimatorSpec(), PreprocSpec((13.0,), 256.0))
    path = mdrm.save_model(model, tmp_path / "model.mdrm")
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["preproc_spec"]["stim_freqs"] = [13.0, 17.0]
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    with pytest.raises(ManifestError, match="is not a multiple"):
        mdrm.load_model(path)


def test_model_load_errors(tmp_path):
    from spdbci.errors import ManifestError, ShapeMismatchError, \
        UnsupportedVersionError

    path = tmp_path / "m.mdrm"
    path.write_bytes(b"garbage with no newline")
    with pytest.raises(ManifestError):
        mdrm.load_model(path)

    ts, cfg = small_set(trials_per_class=1)
    model, _ = mdrm.train(ts, EstimatorSpec(), preproc_for(cfg))
    good = tmp_path / "good.mdrm"
    mdrm.save_model(model, good)
    blob = good.read_bytes()
    header, payload = blob.split(b"\n", 1)

    import json
    doc = json.loads(header)
    doc["version"] = "MDRM v9"
    (tmp_path / "v.mdrm").write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    with pytest.raises(UnsupportedVersionError):
        mdrm.load_model(tmp_path / "v.mdrm")

    (tmp_path / "s.mdrm").write_bytes(header + b"\n" + payload[:-8])
    with pytest.raises(ShapeMismatchError):
        mdrm.load_model(tmp_path / "s.mdrm")
