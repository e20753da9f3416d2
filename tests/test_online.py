import copy
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdbci import mdrm, online, synthgen
from spdbci.errors import ValidationError
from spdbci.estimators import (EstimatorSpec, Moments,
                               RankDeficientCovarianceWarning, Trial,
                               estimate, spec_from_name)
from spdbci.mdrm import PreprocSpec
from spdbci.online import OnlineConfig, OnlineState
from spdbci.preprocessing import epoch_stream, extend_trial

from conftest import frames_of


@pytest.fixture(scope="module")
def trained():
    """Model plus a matching single-class and mixed stream."""
    cfg = synthgen.GenConfig(trials_per_class=10, snr_db=30.0, seed=21)
    ts = synthgen.generate(cfg)
    train, test = synthgen.stratified_split(ts, 8)
    pre = PreprocSpec(stim_freqs=cfg.stim_freqs, sample_rate=cfg.sample_rate)
    model, _ = mdrm.train(train, EstimatorSpec(), pre)
    return model, test


# ---------------------------------------------------------------------------
# gating primitives
# ---------------------------------------------------------------------------

def test_occurrence_unanimous():
    rho, cand = online.occurrence([1, 1, 1, 1, 1], 4)
    assert cand == 1
    assert rho[0] == 1.0
    assert rho[0] > 0.7


def test_occurrence_split_fails_threshold():
    rho, cand = online.occurrence([1, 1, 2, 1, 3], 4)
    assert cand == 1
    assert rho[0] == pytest.approx(0.6)
    assert not rho[0] > 0.7


def test_occurrence_majority():
    rho, cand = online.occurrence([2, 2, 2, 2, 1], 4)
    assert cand == 2
    assert rho[1] == pytest.approx(0.8)
    assert rho[1] > 0.7


def test_occurrence_tie_goes_to_lowest_class():
    _, cand = online.occurrence([2, 2, 1, 1], 4)
    assert cand == 1


def test_curve_decreasing_passes():
    deltas = [np.array([0.5 - 0.05 * j, 0.5 + 0.05 * j]) for j in range(5)]
    value, ok = online.curve_criterion(deltas, 1)
    assert ok and value < 0


def test_curve_constant_fails():
    deltas = [np.array([0.4, 0.6])] * 5
    value, ok = online.curve_criterion(deltas, 1)
    assert value == 0.0
    assert not ok


def test_curve_of_one_epoch_is_zero_and_fails():
    assert online.curve_criterion([np.array([0.3, 0.7])], 2) == (0.0, False)


def test_curve_needs_an_epoch():
    with pytest.raises(ValidationError, match="at least one epoch"):
        online.curve_criterion([], 1)


def test_curve_telescoping_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        series = rng.uniform(0.01, 0.99, size=(5, 4))
        deltas = [row / row.sum() for row in series]
        for cand in range(1, 5):
            value, _ = online.curve_criterion(deltas, cand)
            expected = deltas[-1][cand - 1] - deltas[0][cand - 1]
            assert abs(value - expected) < 1e-12


# ---------------------------------------------------------------------------
# streaming state machine
# ---------------------------------------------------------------------------

# samples before the first possible decision at the default window,
# step and depth and 256 Hz: w_s + (d - 1) * step_s
MIN_BUFFERED_SAMPLES = 921 + 4 * 51


def test_no_decision_before_minimum_samples(trained):
    model, test = trained
    config = OnlineConfig()
    state = OnlineState(model, config)
    stream = np.hstack([t.values for t in test.trials])
    decisions = state.push_samples(stream[:, :MIN_BUFFERED_SAMPLES - 1])
    assert decisions == []
    assert state.epoch_index < config.depth


def test_earliest_decision_at_minimum_samples(trained):
    model, test = trained
    # Single-class stream: every epoch agrees, so the occurrence gate
    # opens at the first possible boundary. The curve gate is off here:
    # a cold stream start drifts away from the (cold-trained) centers
    # while the filters warm up, which is exactly what that gate vetoes.
    cls = test.labels[0]
    same = [t for t, lab in zip(test.trials, test.labels) if lab == cls]
    stream = np.hstack([t.values for t in same])
    config = OnlineConfig(curve_criterion=False)
    state = OnlineState(model, config)
    decisions = state.push_samples(stream)
    assert decisions, "expected at least one decision on a steady stream"
    first = decisions[0]
    assert MIN_BUFFERED_SAMPLES == 1125
    assert first.end_sample == MIN_BUFFERED_SAMPLES
    assert first.epoch_index == 5
    assert abs(first.elapsed_seconds - 4.4) < 0.01  # 1125/256, floor effects
    assert first.label == cls


def test_decisions_respect_gates_on_noise(trained):
    model, _ = trained
    rng = np.random.default_rng(3)
    stream = rng.standard_normal((8, 30 * 256))
    config = OnlineConfig()
    state = OnlineState(model, config)
    decisions = state.push_samples(stream)
    for d in decisions:
        assert d.occurrence > config.theta
        assert d.curve_sum < 0


def test_epoch_log_rows_cover_every_epoch(trained):
    model, test = trained
    state = OnlineState(model, OnlineConfig())
    state.push_samples(test.trials[0].values)
    assert len(state.epoch_log) == state.epoch_index
    for row in state.epoch_log:
        assert row["epoch"] >= 1
        assert isinstance(row["decided"], bool)


def test_normalized_distances_sum_to_one(trained):
    model, test = trained
    state = OnlineState(model, OnlineConfig())
    state.push_samples(test.trials[0].values)
    for vec in state._gate.deltas:
        assert abs(vec.sum() - 1.0) < 1e-9
        assert np.all(vec > 0) and np.all(vec < 1)


def test_frame_segmentation_invariance(trained):
    model, test = trained
    stream = np.hstack([t.values for t in test.trials[:3]])
    state_whole = OnlineState(model, OnlineConfig())
    whole = state_whole.push_samples(stream)

    state_chunks = OnlineState(model, OnlineConfig())
    chunked = []
    rng = np.random.default_rng(0)
    pos = 0
    while pos < stream.shape[1]:
        step = int(rng.integers(1, 200))
        chunked.extend(state_chunks.push_samples(stream[:, pos:pos + step]))
        pos += step
    assert len(whole) == len(chunked)
    for a, b in zip(whole, chunked):
        assert a == b
    assert state_whole.epoch_log == state_chunks.epoch_log


def test_single_sample_pushes(trained):
    model, test = trained
    stream = test.trials[0].values[:, :1400]
    state_whole = OnlineState(model, OnlineConfig())
    whole = state_whole.push_samples(stream)
    state_single = OnlineState(model, OnlineConfig())
    single = []
    for i in range(stream.shape[1]):
        single.extend(state_single.push_samples(stream[:, i]))
    assert whole == single


def test_theta_monotonicity(trained):
    model, test = trained
    stream = np.hstack([t.values for t in test.trials[:6]])
    counts = []
    for theta in (0.5, 0.7, 0.9):
        state = OnlineState(model, OnlineConfig(theta=theta))
        counts.append(len(state.push_samples(stream)))
    assert counts == sorted(counts, reverse=True)


def test_consecutive_decisions_spaced_by_ring_refill(trained):
    # after a decision the rings clear, so the next decision needs d fresh
    # epochs: end samples are at least depth * step apart
    model, test = trained
    stream = np.hstack([t.values for t in test.trials])
    config = OnlineConfig(curve_criterion=False)
    state = OnlineState(model, config)
    decisions = state.push_samples(stream)
    assert len(decisions) >= 2
    plan = config.plan()
    min_gap = config.depth * plan.step_samples(256.0)
    gaps = [b.end_sample - a.end_sample
            for a, b in zip(decisions, decisions[1:])]
    assert all(gap >= min_gap for gap in gaps)


def test_channel_mismatch_rejected(trained):
    model, _ = trained
    state = OnlineState(model, OnlineConfig())
    with pytest.raises(ValidationError):
        state.push_samples(np.zeros((5, 10)))


def test_config_validation():
    with pytest.raises(ValidationError):
        OnlineConfig(window_seconds=0.2, step_seconds=0.2)
    with pytest.raises(ValidationError):
        OnlineConfig(depth=0)
    with pytest.raises(ValidationError):
        OnlineConfig(theta=0.0)
    with pytest.raises(ValidationError):
        OnlineConfig(theta=1.5)


def test_window_without_a_finite_sample_count_is_refused(trained):
    model, _ = trained
    config = OnlineConfig(window_seconds=1e308)
    with pytest.raises(ValidationError, match="no finite sample count"):
        OnlineState(model, config)


# ---------------------------------------------------------------------------
# stream evaluation
# ---------------------------------------------------------------------------

def test_single_class_stream_fully_decided(trained):
    # Occurrence-only gating: the curve gate deliberately holds back the
    # cold-start portion of a stream, which would leave the very first
    # trial undecided.
    model, test = trained
    cls = test.labels[0]
    idx = [i for i, lab in enumerate(test.labels) if lab == cls]
    single = test.subset(idx)
    report = online.evaluate_stream(single, model,
                                    OnlineConfig(curve_criterion=False))
    assert report.held_back_count == 0
    assert report.accuracy == 100.0
    assert all(o.correct for o in report.outcomes)


def test_curve_improves_accuracy_on_carryover(carryover_set):
    pre = PreprocSpec(stim_freqs=tuple(carryover_set.meta["stim_freqs"]),
                      sample_rate=carryover_set.sample_rate)
    train, test = synthgen.stratified_split(carryover_set, 8)
    model, _ = mdrm.train(train, EstimatorSpec(), pre, mean_tolerance=1e-4)
    plain = online.evaluate_stream(test, model,
                                   OnlineConfig(curve_criterion=False))
    curved = online.evaluate_stream(test, model,
                                    OnlineConfig(curve_criterion=True))
    assert curved.accuracy >= plain.accuracy
    assert curved.mean_delay >= plain.mean_delay


def test_delays_measured_from_trial_onset(trained):
    model, test = trained
    report = online.evaluate_stream(test, model, OnlineConfig())
    trial_seconds = test.trials[0].duration
    for outcome in report.outcomes:
        if outcome.decided:
            assert 0.0 <= outcome.delay_seconds <= trial_seconds + 1e-9


def test_epoch_log_csv(tmp_path, trained):
    model, test = trained
    report = online.evaluate_stream(test.subset([0, 1]), model, OnlineConfig())
    path = tmp_path / "epochs.csv"
    online.write_epoch_log(report.epoch_log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,end_seconds,label,candidate,rho,delta,decided"
    assert len(lines) == 1 + len(report.epoch_log)
    first = lines[1].split(",")
    assert first[0] == "1"


@pytest.fixture(scope="module")
def pushed_whole(trained):
    """Three test trials pushed as one frame: the stream, its decisions
    and its epoch log."""
    model, test = trained
    stream = np.hstack([t.values for t in test.trials[:3]])
    state = OnlineState(model, OnlineConfig())
    return stream, state.push_samples(stream), state.epoch_log


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(sizes=st.lists(st.integers(1, 600), min_size=1, max_size=20))
def test_random_chunkings_give_identical_decisions(trained, pushed_whole,
                                                   sizes):
    model, _ = trained
    stream, decisions, epoch_log = pushed_whole
    state = OnlineState(model, OnlineConfig())
    chunked = []
    for frame in frames_of(stream, sizes):
        chunked.extend(state.push_samples(frame))
    assert chunked == decisions
    assert state.epoch_log == epoch_log


# the default plan (a 3-sample first filter block, then 51) and one whose
# window is a whole number of steps (1024 = 16 * 64 at 256 Hz), so the
# first block is a full step
GRID_CONFIGS = {"3.6/0.2": OnlineConfig(),
                "4.0/0.25": OnlineConfig(window_seconds=4.0,
                                         step_seconds=0.25)}


@pytest.fixture(scope="module", params=sorted(GRID_CONFIGS))
def pushed_whole_per_plan(request, trained):
    """Per plan: the config, three test trials as one stream, and the
    decisions and epoch log of that stream pushed as one frame."""
    model, test = trained
    config = GRID_CONFIGS[request.param]
    stream = np.hstack([t.values for t in test.trials[:3]])
    state = OnlineState(model, config)
    return config, stream, state.push_samples(stream), state.epoch_log


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(sizes=st.lists(st.one_of(st.just(1), st.integers(1, 60),
                                st.integers(103, 700)),
                      min_size=1, max_size=20))
def test_epoch_log_bit_identical_over_chunkings_on_each_grid(
        trained, pushed_whole_per_plan, sizes):
    # frames of one sample, frames shorter than a block and frames longer
    # than two blocks all filter on the same grid
    model, _ = trained
    config, stream, decisions, epoch_log = pushed_whole_per_plan
    state = OnlineState(model, config)
    chunked = []
    for frame in frames_of(stream, sizes):
        chunked.extend(state.push_samples(frame))
    assert chunked == decisions
    assert state.epoch_log == epoch_log


def test_one_sample_frames_bit_identical_on_each_grid(
        trained, pushed_whole_per_plan):
    model, _ = trained
    config, stream, decisions, epoch_log = pushed_whole_per_plan
    state = OnlineState(model, config)
    single = []
    for i in range(stream.shape[1]):
        single.extend(state.push_samples(stream[:, i]))
    assert single == decisions and state.epoch_log == epoch_log
    assert epoch_log, "expected epochs on three trials"


def test_trailing_samples_wait_for_the_next_block(trained):
    # at most d_s - 1 raw samples wait, and never an epoch's last one
    model, test = trained
    plan = OnlineConfig().plan()
    w = plan.window_samples(test.sample_rate)
    first, step = plan.grid_blocks(test.sample_rate)
    for end in (w - 1, w, w + 1, w + step - 1, w + step):
        state = OnlineState(model)
        state.push_samples(test.trials[0].values[:, :end])
        closed = [row["end_sample"] for row in state.epoch_log]
        assert closed == list(range(w, end + 1, step))
        assert state._raw.shape[1] == (end - first) % step


def test_buffer_bounded_and_frame_size_invariant(trained):
    # 48 s of stream: the moment ring turns over many times.
    model, test = trained
    stream = np.hstack([t.values for t in test.trials])
    runs = []
    for frame in (1, 32, 1000):
        state = OnlineState(model, OnlineConfig())
        decisions = []
        for start in range(0, stream.shape[1], frame):
            decisions.extend(state.push_samples(stream[:, start:start + frame]))
            w = state._w
            assert state._buffer.capacity <= max(2 * w, w + frame)
        runs.append((decisions, state.epoch_log))
    assert runs[0][1], "expected epochs on a 48 s stream"
    assert runs[0] == runs[1] == runs[2]


def test_non_finite_frame_rejected_without_touching_state(trained):
    model, test = trained
    stream = test.trials[0].values
    bad = stream[:, :64].copy()
    bad[3, 10] = np.nan
    state = OnlineState(model, OnlineConfig())
    with pytest.raises(ValidationError, match="non-finite"):
        state.push_samples(bad)
    assert state.samples_seen == 0
    fresh = OnlineState(model, OnlineConfig())
    assert state.push_samples(stream) == fresh.push_samples(stream)
    assert state.epoch_log == fresh.epoch_log


@pytest.mark.parametrize("kind, match", [
    ("complex", "real numbers"), ("string", "real numbers"),
    ("object", "real numbers"), ("3-D", "1-D or 2-D")])
def test_malformed_frame_rejected_without_touching_state(trained, kind,
                                                         match):
    model, _ = trained
    state = OnlineState(model, OnlineConfig())
    shape = (state.channels, 64)
    frame = {"complex": np.ones(shape, dtype=complex),
             "string": np.full(shape, "x"),
             "object": np.full(shape, None, dtype=object),
             "3-D": np.ones(shape + (1,))}[kind]
    with pytest.raises(ValidationError, match=match):
        state.push_samples(frame)
    assert state.samples_seen == 0 and state._raw.shape[1] == 0


def test_unscorable_epoch_is_named_and_no_sample_is_dropped(trained):
    model, _ = trained
    state = OnlineState(model, OnlineConfig())
    w, step = 921, 51
    noise = np.random.default_rng(3).standard_normal((state.channels, 2560))

    def consistent():
        return state.samples_seen == state._filtered + state._raw.shape[1]

    with warnings.catch_warnings():
        # every all-zero window has a singular covariance
        warnings.simplefilter("ignore", RankDeficientCovarianceWarning)
        with pytest.raises(ValidationError,
                           match="^epoch 1 ending at sample 921 cannot be "
                                 "scored: its covariance is not positive"):
            state.push_samples(np.zeros((state.channels, w + 70 * step)))
        assert consistent() and state.samples_seen == w + 70 * step
        # the zeros the failed push left unfiltered come first in the next
        with pytest.raises(ValidationError,
                           match="^epoch 65 ending at sample 4185 "):
            state.push_samples(noise)
        assert consistent()
    state.push_samples(noise)
    assert consistent() and state.epoch_log
    assert all(row["end_sample"] == w + (row["epoch"] - 1) * step
               for row in state.epoch_log)
    assert 0 <= state.samples_seen - state.epoch_log[-1]["end_sample"] < step


@pytest.mark.parametrize("frame", [1, 51, 1000])
def test_epochs_match_epoch_stream(trained, frame):
    # the online state and the offline epoching cut the same windows
    model, test = trained
    values = np.hstack([t.values for t in test.trials[:2]])
    config = OnlineConfig()
    state = OnlineState(model, config)
    for start in range(0, values.shape[1], frame):
        state.push_samples(values[:, start:start + frame])
    epochs = epoch_stream(Trial(values, test.sample_rate), config.plan())
    w = config.plan().window_samples(test.sample_rate)
    ends = [row["end_sample"] for row in state.epoch_log]
    assert len(ends) == len(epochs) == state.epoch_index > 0
    for end, epoch in zip(ends, epochs):
        assert np.array_equal(epoch.values, values[:, end - w:end])


def test_epoch_log_keeps_distances(trained):
    model, test = trained
    state = OnlineState(model, OnlineConfig())
    state.push_samples(test.trials[0].values)
    for row in state.epoch_log:
        dists = row["distances"]
        assert isinstance(dists, tuple) and len(dists) == model.class_count
        assert all(type(d) is float for d in dists)
        assert row["label"] == int(np.argmin(dists)) + 1


# ---------------------------------------------------------------------------
# the epoch estimate: block moments (scm, shrinkage) or the window itself
# ---------------------------------------------------------------------------

ESTIMATOR_NAMES = ["scm", "ledoit", "nscm", "fixed_point"]


def split_at(snr_db):
    """Train and test sets of the ``trained`` fixture's kind at ``snr_db``,
    with their preprocessing."""
    cfg = synthgen.GenConfig(trials_per_class=10, snr_db=snr_db, seed=21)
    train, test = synthgen.stratified_split(synthgen.generate(cfg), 8)
    pre = PreprocSpec(stim_freqs=cfg.stim_freqs, sample_rate=cfg.sample_rate)
    return train, test, pre


@pytest.fixture(scope="module")
def split_set():
    return split_at(30.0)


@pytest.fixture(scope="module", params=ESTIMATOR_NAMES)
def model_per_estimator(request, split_set):
    train, test, pre = split_set
    model, _ = mdrm.train(train, spec_from_name(request.param), pre)
    return model, np.hstack([t.values for t in test.trials[:3]])


def live_and_offline_epochs(model, stream, monkeypatch):
    """Per epoch of ``stream`` pushed in 32-sample frames: the live
    epoch-log row and covariance, and the covariance estimated from that
    epoch of the one-piece filtered stream."""
    live = []

    def recording(data, spec):
        live.append(estimate(data, spec))
        return live[-1]

    monkeypatch.setattr(online, "estimate", recording)
    state = OnlineState(model)
    for frame in frames_of(stream, [32]):
        state.push_samples(frame)
    pre = model.preproc_spec
    filtered = extend_trial(Trial(stream, pre.sample_rate), pre.stim_freqs,
                            pre.half_bandwidth, pre.filter_order, pre.sos)
    epochs = epoch_stream(filtered, OnlineConfig().plan())
    assert len(epochs) == len(live) == len(state.epoch_log) > 0
    return [(row, cov, estimate(epoch, model.estimator_spec))
            for row, cov, epoch in zip(state.epoch_log, live, epochs)]


def test_live_epoch_covariances_match_offline_estimates(model_per_estimator,
                                                        monkeypatch):
    # from block moments (scm, shrinkage) or from the buffered window
    model, stream = model_per_estimator
    spec = model.estimator_spec
    # the fixed point is defined only to its stopping rule: inputs that
    # differ by roundoff may stop one iteration apart
    rtol = spec.fp_tolerance if spec.kind == "fixed_point" else 1e-12
    for _, live, offline in live_and_offline_epochs(model, stream,
                                                    monkeypatch):
        assert np.linalg.norm(live - offline) <= \
            rtol * np.linalg.norm(offline)


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_live_epoch_distances_match_offline_at_low_snr(name, monkeypatch):
    # At 0 dB, as in a live session, the epoch covariances are
    # conditioned well enough (about 5e3) for 1e-10 relative distances;
    # at 30 dB (about 5e6) filter roundoff alone moves the distances of
    # the window path by ~1e-7, though the covariances agree to 1e-14.
    train, test, pre = split_at(0.0)
    model, _ = mdrm.train(train, spec_from_name(name), pre)
    stream = np.hstack([t.values for t in test.trials[:3]])
    for row, _, offline in live_and_offline_epochs(model, stream,
                                                   monkeypatch):
        label, dists = mdrm.classify_covariance(offline, model)
        live = np.array(row["distances"])
        assert np.all(np.abs(live - dists) <= 1e-10 * dists)
        nearest = np.sort(dists)
        if nearest[1] > (1.0 + 1e-9) * nearest[0]:
            assert row["label"] == label


def test_each_estimator_names_an_unscorable_epoch(model_per_estimator):
    # nscm and the fixed point refuse an all-zero window when estimating
    # it, scm and shrinkage when classifying its singular covariance
    model, _ = model_per_estimator
    state = OnlineState(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientCovarianceWarning)
        with pytest.raises(ValidationError,
                           match="^epoch 1 ending at sample 921 cannot"):
            state.push_samples(np.zeros((state.channels, 2000)))
    assert state.samples_seen == state._filtered + state._raw.shape[1]
    assert not state.epoch_log


def test_each_estimator_streams_alike_for_any_frame_size(model_per_estimator):
    model, stream = model_per_estimator
    whole = OnlineState(model)
    decisions = whole.push_samples(stream)
    for sizes in ([1], [7, 300, 51]):
        state = OnlineState(model)
        chunked = []
        for frame in frames_of(stream, sizes):
            chunked.extend(state.push_samples(frame))
        assert chunked == decisions and state.epoch_log == whole.epoch_log


@pytest.mark.parametrize("chunk", [online._SCORE_CHUNK, 5])
def test_a_push_spanning_score_chunks_equals_small_frames(
        model_per_estimator, monkeypatch, chunk):
    # one push of three trials (73 epochs) is scored in stacks of at most
    # _SCORE_CHUNK epochs: one estimate call per stack from block moments
    # or one per epoch from the window, one classify call per stack
    model, stream = model_per_estimator
    monkeypatch.setattr(online, "_SCORE_CHUNK", chunk)
    calls = {"estimate": [], "classify": []}

    def counted(name, fn):
        def call(data, *args):
            size = data.sums.shape[0] if isinstance(data, Moments) \
                else len(data) if np.ndim(data) == 3 else 1
            calls[name].append(size)
            return fn(data, *args)
        return call

    monkeypatch.setattr(online, "estimate", counted("estimate", estimate))
    monkeypatch.setattr(online, "classify_covariance",
                        counted("classify", mdrm.classify_covariance))
    whole = OnlineState(model)
    decisions = whole.push_samples(stream)
    epochs = len(whole.epoch_log)
    assert epochs > chunk
    stacks = [chunk] * (epochs // chunk) + [epochs % chunk] * bool(
        epochs % chunk)
    assert calls["classify"] == stacks
    windowed = model.estimator_spec.kind not in ("scm", "shrinkage")
    assert calls["estimate"] == ([1] * epochs if windowed else stacks)
    for sizes in ([1], [32]):
        state = OnlineState(model)
        chunked = []
        for frame in frames_of(stream, sizes):
            chunked.extend(state.push_samples(frame))
        assert chunked == decisions and state.epoch_log == whole.epoch_log


def test_rank_deficient_epoch_still_warns(split_set):
    train, test, pre = split_set
    model, _ = mdrm.train(train, EstimatorSpec(kind="scm"), pre)
    stream = test.trials[0].values.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankDeficientCovarianceWarning)
        OnlineState(model).push_samples(stream)
    stream[1] = stream[0]
    with pytest.warns(RankDeficientCovarianceWarning):
        OnlineState(model).push_samples(stream)


# ---------------------------------------------------------------------------
# gating a scored stream again
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def carryover_scored(carryover_set):
    pre = PreprocSpec(stim_freqs=tuple(carryover_set.meta["stim_freqs"]),
                      sample_rate=carryover_set.sample_rate)
    train, test = synthgen.stratified_split(carryover_set, 8)
    model, _ = mdrm.train(train, EstimatorSpec(), pre, mean_tolerance=1e-4)
    scored = online.evaluate_stream(test, model,
                                    OnlineConfig(curve_criterion=False))
    return model, test, scored


@pytest.mark.parametrize("theta", [0.5, 0.7])
@pytest.mark.parametrize("depth", [2, 5, 8])
@pytest.mark.parametrize("curve", [False, True])
def test_regate_equals_fresh_replay(carryover_scored, curve, depth, theta):
    model, test, scored = carryover_scored
    before = copy.deepcopy(scored)
    config = OnlineConfig(depth=depth, theta=theta, curve_criterion=curve)
    again = online.regate(scored, config)
    fresh = online.evaluate_stream(test, model, config)
    for field in dataclasses.fields(online.StreamReport):
        assert getattr(again, field.name) == getattr(fresh, field.name), \
            field.name
    assert fresh.decisions
    assert scored == before


def test_depth_one_holds_every_trial_back_on_the_curve(carryover_scored):
    model, test, scored = carryover_scored
    config = OnlineConfig(depth=1)
    again = online.regate(scored, config)
    assert again == online.evaluate_stream(test, model, config)
    assert not again.decisions
    assert again.held_back_count == len(test.trials)
    assert all(row["delta"] == 0.0 for row in again.epoch_log)
    # the occurrence gate alone decides at depth 1
    assert online.regate(scored, OnlineConfig(depth=1, curve_criterion=False)
                         ).decisions


@pytest.mark.parametrize("change", [{"window_seconds": 3.0},
                                    {"step_seconds": 0.25}])
def test_regate_rejects_other_window_or_step(carryover_scored, change):
    _, _, scored = carryover_scored
    with pytest.raises(ValidationError, match="window and step"):
        online.regate(scored, OnlineConfig(**change))


def test_regate_scores_the_set_it_was_given(carryover_scored):
    _, test, scored = carryover_scored
    assert scored.trial_set is test
    again = online.regate(scored, OnlineConfig(curve_criterion=False))
    assert again.trial_set is test
    assert again == scored


def test_window_longer_than_the_stream_holds_every_trial_back(trained):
    # its moment ring would be ~88 TiB; no stream state is built
    model, test = trained
    report = online.evaluate_stream(test, model,
                                    OnlineConfig(window_seconds=1e9))
    assert report.epoch_log == [] and report.decisions == []
    assert report.held_back_count == len(test.trials)
    assert report.decided_count == 0 and report.accuracy is None


@pytest.mark.parametrize("gen, message", [
    ({"sample_rate": 512.0}, "sample rate 512.0"),
    ({"channels": 4}, "frame has 4 channels, stream expects 8"),
], ids=["sample-rate", "channels"])
def test_window_longer_than_the_stream_keeps_the_refusals(trained, gen,
                                                          message):
    model, _ = trained
    other = synthgen.generate(synthgen.GenConfig(trials_per_class=1, seed=1,
                                                 **gen))
    for window in (OnlineConfig().window_seconds, 1e9):
        with pytest.raises(ValidationError, match=message):
            online.evaluate_stream(other, model,
                                   OnlineConfig(window_seconds=window))


def test_stream_rejects_other_sample_rate(trained):
    model, _ = trained
    fast = synthgen.generate(synthgen.GenConfig(
        sample_rate=512.0, trials_per_class=2, seed=1))
    with pytest.raises(ValidationError, match="sample rate 512.0"):
        online.evaluate_stream(fast, model)
    with pytest.raises(ValidationError, match="sample rate 512.0"):
        mdrm.classify(fast.trials[0], model)
