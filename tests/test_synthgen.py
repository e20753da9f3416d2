import json

import numpy as np
import pytest

from spdbci import synthgen
from spdbci.errors import (
    ManifestError,
    MissingPayloadError,
    ShapeMismatchError,
    UnsupportedVersionError,
    ValidationError,
)


def band_power(x, freq, fs, half=1.0):
    """Summed periodogram power of one row within freq +- half."""
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1 / fs)
    return power[np.abs(freqs - freq) <= half].sum()


def total_stim_band_power(trial, freq, fs):
    return sum(band_power(row, freq, fs) for row in trial.values)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_default_config_composition():
    ts = synthgen.generate(synthgen.GenConfig(seed=5))
    assert len(ts.trials) == 32
    assert ts.class_count == 4
    counts = {k: ts.labels.count(k) for k in range(1, 5)}
    assert counts == {1: 8, 2: 8, 3: 8, 4: 8}
    assert all(t.values.shape == (8, 1536) for t in ts.trials)


def test_same_seed_is_bit_identical():
    a = synthgen.generate(synthgen.GenConfig(seed=42, snr_db=3.0))
    b = synthgen.generate(synthgen.GenConfig(seed=42, snr_db=3.0))
    assert a.labels == b.labels
    for ta, tb in zip(a.trials, b.trials):
        assert np.array_equal(ta.values, tb.values)


def test_different_seeds_differ():
    a = synthgen.generate(synthgen.GenConfig(seed=1))
    b = synthgen.generate(synthgen.GenConfig(seed=2))
    assert not np.array_equal(a.trials[0].values, b.trials[0].values)


def test_stimulus_band_dominance_margin_monotone_in_snr():
    margins = []
    for snr in (-10.0, 0.0, 10.0):
        ts = synthgen.generate(synthgen.GenConfig(seed=9, snr_db=snr))
        fs = ts.sample_rate
        freqs = ts.meta["stim_freqs"]
        ratios = []
        for trial, label in zip(ts.trials, ts.labels):
            if label == ts.class_count:
                continue
            own = total_stim_band_power(trial, freqs[label - 1], fs)
            others = max(total_stim_band_power(trial, f, fs)
                         for i, f in enumerate(freqs) if i != label - 1)
            ratios.append(own / others)
        margins.append(np.median(ratios))
    assert margins[0] < margins[1] < margins[2]


def test_rest_trials_have_no_dominant_band():
    for snr in (0.0, -10.0):
        ts = synthgen.generate(synthgen.GenConfig(seed=10, snr_db=snr))
        fs = ts.sample_rate
        freqs = ts.meta["stim_freqs"]
        for trial, label in zip(ts.trials, ts.labels):
            if label != ts.class_count:
                continue
            powers = sorted(total_stim_band_power(trial, f, fs) for f in freqs)
            assert powers[-1] / powers[1] < 2.0  # max over median


def test_carryover_head_keeps_previous_frequency():
    ts = synthgen.generate(synthgen.GenConfig(
        seed=4, snr_db=20.0, transition_carryover_seconds=2.0))
    fs = ts.sample_rate
    freqs = ts.meta["stim_freqs"]
    rest = ts.class_count
    checked = 0
    for i in range(1, len(ts.trials)):
        prev, cur = ts.labels[i - 1], ts.labels[i]
        if prev == rest or cur == rest or prev == cur:
            continue
        head = ts.trials[i].values[:, :int(1.0 * fs)]
        prev_power = sum(band_power(row, freqs[prev - 1], fs) for row in head)
        cur_power = sum(band_power(row, freqs[cur - 1], fs) for row in head)
        assert prev_power > cur_power
        checked += 1
    assert checked > 0


def test_carryover_longer_than_a_trial_covers_the_trial():
    def values(carryover):
        ts = synthgen.generate(synthgen.GenConfig(
            seed=4, trials_per_class=1, trial_seconds=0.5,
            transition_carryover_seconds=carryover))
        return [t.values for t in ts.trials]

    # 1e308 s is finite, but not as a sample count
    assert np.array_equal(values(1e308), values(0.5))


def test_gen_config_validation():
    with pytest.raises(ValidationError):
        synthgen.GenConfig(channels=0)
    with pytest.raises(ValidationError):
        synthgen.GenConfig(stim_freqs=())
    with pytest.raises(ValidationError):
        synthgen.GenConfig(snr_db=float("inf"))
    with pytest.raises(ValidationError):
        synthgen.GenConfig(transition_carryover_seconds=-1.0)


def test_trialset_label_range_checked():
    ts = synthgen.generate(synthgen.GenConfig(seed=0, trials_per_class=1))
    with pytest.raises(ValidationError):
        synthgen.TrialSet(ts.trials, [99] * len(ts.trials), ts.meta)
    with pytest.raises(ValidationError):
        synthgen.TrialSet(ts.trials, ts.labels[:-1], ts.meta)


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    ts = synthgen.generate(synthgen.GenConfig(seed=3, trials_per_class=2))
    synthgen.save(ts, tmp_path / "d")
    back = synthgen.load(tmp_path / "d")
    assert back.labels == ts.labels
    assert back.meta == ts.meta
    for ta, tb in zip(ts.trials, back.trials):
        assert np.array_equal(ta.values, tb.values)
        assert ta.sample_rate == tb.sample_rate


def test_labels_csv_written(tmp_path):
    ts = synthgen.generate(synthgen.GenConfig(seed=3, trials_per_class=1))
    synthgen.save(ts, tmp_path / "d")
    lines = (tmp_path / "d" / "labels.csv").read_text().splitlines()
    assert lines[0] == "trial,label"
    assert len(lines) == 1 + len(ts.trials)
    assert lines[1] == f"0,{ts.labels[0]}"


def test_load_missing_manifest(tmp_path):
    with pytest.raises(ManifestError):
        synthgen.load(tmp_path)


def test_load_malformed_manifest(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "manifest.json").write_text("{ not json")
    with pytest.raises(ManifestError):
        synthgen.load(d)


def test_load_missing_keys(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"version": "EEGSET v1"}))
    with pytest.raises(ManifestError):
        synthgen.load(d)


def test_load_unsupported_version(tmp_path):
    ts = synthgen.generate(synthgen.GenConfig(seed=3, trials_per_class=1))
    synthgen.save(ts, tmp_path / "d")
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    manifest["version"] = "EEGSET v999"
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(UnsupportedVersionError):
        synthgen.load(tmp_path / "d")


def test_load_shape_mismatch(tmp_path):
    ts = synthgen.generate(synthgen.GenConfig(seed=3, trials_per_class=1))
    synthgen.save(ts, tmp_path / "d")
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    manifest["channels"] = 11  # contradicts payload byte counts
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ShapeMismatchError):
        synthgen.load(tmp_path / "d")


def test_load_missing_payload(tmp_path):
    ts = synthgen.generate(synthgen.GenConfig(seed=3, trials_per_class=1))
    synthgen.save(ts, tmp_path / "d")
    (tmp_path / "d" / "trial_0001.f64").unlink()
    with pytest.raises(MissingPayloadError):
        synthgen.load(tmp_path / "d")


def test_stratified_split():
    ts = synthgen.generate(synthgen.GenConfig(seed=6, trials_per_class=4))
    train, test = synthgen.stratified_split(ts, 3)
    for cls in range(1, 5):
        assert train.labels.count(cls) == 3
        assert test.labels.count(cls) == 1
    assert len(train.trials) + len(test.trials) == len(ts.trials)
