import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import signal

from spdbci import preprocessing as pp
from spdbci.errors import FilterDesignError, ValidationError
from spdbci.estimators import Trial

from conftest import frames_of

FS = 256.0


def sine_trial(freq, seconds=8.0, channels=1, fs=FS, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    x = amp * np.sin(2 * np.pi * freq * t)
    return Trial(np.tile(x, (channels, 1)), fs)


# ---------------------------------------------------------------------------
# filter design
# ---------------------------------------------------------------------------

def test_bandpass_response_oracle():
    sos = pp.design_bandpass(pp.FilterSpec(13.0, 1.0, 8, FS))
    freqs, resp = signal.sosfreqz(sos, worN=[13.0, 21.0], fs=FS)
    gain_db = 20 * np.log10(np.abs(resp))
    assert gain_db[0] >= -1.0     # passband center
    assert gain_db[1] <= -30.0    # neighbouring stimulus frequency


def test_bandpass_passes_center_sinusoid():
    sos = pp.design_bandpass(pp.FilterSpec(13.0, 1.0, 8, FS))
    trial = sine_trial(13.0, seconds=16.0)
    out = signal.sosfilt(sos, trial.values, axis=1)
    # steady state: discard the transient, compare RMS amplitudes over an
    # integer number of cycles (4 s x 13 Hz = 52)
    tail = out[0, int(12 * FS):]
    amp = np.sqrt(2) * np.sqrt(np.mean(tail ** 2))
    assert 0.89 <= amp <= 1.0


def test_bandpass_kills_dc():
    sos = pp.design_bandpass(pp.FilterSpec(13.0, 1.0, 8, FS))
    dc = np.ones((1, int(10 * FS)))
    out = signal.sosfilt(sos, dc, axis=1)
    assert np.max(np.abs(out[0, int(6 * FS):])) < 1e-3


def test_filter_spec_validation():
    with pytest.raises(ValidationError):
        pp.FilterSpec(13.0, 1.0, 7, FS)       # odd order
    with pytest.raises(ValidationError):
        pp.FilterSpec(13.0, 1.0, 0, FS)
    with pytest.raises(ValidationError):
        pp.FilterSpec(127.5, 1.0, 8, FS)      # reaches Nyquist
    with pytest.raises(ValidationError):
        pp.FilterSpec(-5.0, 1.0, 8, FS)


def test_design_rejects_nonpositive_low_edge():
    with pytest.raises(FilterDesignError):
        pp.design_bandpass(pp.FilterSpec(0.5, 1.0, 8, FS))


# ---------------------------------------------------------------------------
# trial extension
# ---------------------------------------------------------------------------

def test_extend_single_band_shape():
    rng = np.random.default_rng(0)
    trial = Trial(rng.standard_normal((4, 512)), FS)
    ext = pp.extend_trial(trial, [13.0])
    assert ext.values.shape == (4, 512)
    sos = pp.design_bandpass(pp.FilterSpec(13.0, 1.0, 8, FS))
    assert_allclose(ext.values, signal.sosfilt(sos, trial.values, axis=1),
                    atol=0)


def test_extend_stacks_rows():
    rng = np.random.default_rng(1)
    trial = Trial(rng.standard_normal((8, 512)), FS)
    ext = pp.extend_trial(trial, [13.0, 17.0, 21.0])
    assert ext.values.shape == (24, 512)


def test_extend_blocks_are_independent():
    rng = np.random.default_rng(2)
    trial = Trial(rng.standard_normal((3, 400)), FS)
    ext = pp.extend_trial(trial, [13.0, 17.0, 21.0])
    for i, freq in enumerate([13.0, 17.0, 21.0]):
        alone = pp.extend_trial(trial, [freq])
        assert_allclose(ext.values[3 * i:3 * (i + 1)], alone.values, atol=0)


def test_extend_band_power_dominance():
    t = np.arange(int(8 * FS)) / FS
    x = sum(np.sin(2 * np.pi * f * t + 0.3 * f) for f in (13.0, 17.0, 21.0))
    trial = Trial(np.tile(x, (2, 1)), FS)
    ext = pp.extend_trial(trial, [13.0, 17.0, 21.0])
    steady = ext.values[:, int(4 * FS):]
    spectrum_freqs = np.fft.rfftfreq(steady.shape[1], 1 / FS)

    def band_power(row, center):
        power = np.abs(np.fft.rfft(steady[row])) ** 2
        mask = np.abs(spectrum_freqs - center) <= 1.0
        return power[mask].sum()

    for block, own in enumerate((13.0, 17.0, 21.0)):
        row = 2 * block
        others = [band_power(row, f) for f in (13.0, 17.0, 21.0) if f != own]
        assert band_power(row, own) > 10 * max(others)


def test_filtering_is_linear():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 300))
    y = rng.standard_normal((2, 300))
    a, b = 2.5, -1.3
    fx = pp.extend_trial(Trial(x, FS), [13.0]).values
    fy = pp.extend_trial(Trial(y, FS), [13.0]).values
    fxy = pp.extend_trial(Trial(a * x + b * y, FS), [13.0]).values
    assert np.linalg.norm(fxy - (a * fx + b * fy)) < 1e-8


def test_offline_and_streaming_paths_share_coefficients():
    rng = np.random.default_rng(4)
    trial = Trial(rng.standard_normal((4, 1000)), FS)
    bank = pp.BandpassFilterBank([13.0, 17.0, 21.0], 4, FS)
    offline = pp.extend_trial(trial, [13.0, 17.0, 21.0])
    # identical coefficients by construction
    fresh = pp.BandpassFilterBank([13.0, 17.0, 21.0], 4, FS)
    for a, b in zip(bank.sos, fresh.sos):
        assert_allclose(a, b, atol=0)
    # streaming in chunks is bit-identical to the offline path
    out = np.hstack([bank.process(trial.values[:, i:i + 97])
                     for i in range(0, 1000, 97)])
    assert np.array_equal(out, offline.values)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(sizes=st.lists(st.integers(1, 600), min_size=1, max_size=20))
def test_random_chunkings_filter_bit_identically(sizes):
    values = np.random.default_rng(9).standard_normal((4, 1500))
    whole = pp.BandpassFilterBank([13.0, 17.0, 21.0], 4, FS).process(values)
    bank = pp.BandpassFilterBank([13.0, 17.0, 21.0], 4, FS)
    out = np.hstack([bank.process(f) for f in frames_of(values, sizes)])
    assert np.array_equal(out, whole)


def test_filter_bank_frame_validation():
    bank = pp.BandpassFilterBank([13.0], 4, FS)
    with pytest.raises(ValidationError):
        bank.process(np.zeros((3, 10)))


# ---------------------------------------------------------------------------
# latency trimming
# ---------------------------------------------------------------------------

def test_trim_zero_is_identity():
    rng = np.random.default_rng(5)
    trial = Trial(rng.standard_normal((2, 100)), FS)
    out = pp.trim_latency(trial, 0.0)
    assert_allclose(out.values, trial.values, atol=0)


def test_trim_two_seconds_at_256hz():
    trial = Trial(np.zeros((8, 1536)), FS)
    out = pp.trim_latency(trial, 2.0)
    assert out.samples == 1024


def test_trim_beyond_length_rejected():
    trial = Trial(np.zeros((2, 100)), FS)
    with pytest.raises(ValidationError):
        pp.trim_latency(trial, 100 / FS)


# ---------------------------------------------------------------------------
# epoching
# ---------------------------------------------------------------------------

def test_epoch_plan_validation():
    with pytest.raises(ValidationError):
        pp.EpochPlan(1.0, 1.0)
    with pytest.raises(ValidationError):
        pp.EpochPlan(1.0, -0.1)


def test_epoch_count_arithmetic():
    # floor((2560 - 921) / 51) + 1 = 33
    recording = Trial(np.zeros((2, 2560)), FS)
    plan = pp.EpochPlan(3.6, 0.2)
    assert plan.window_samples(FS) == 921
    assert plan.step_samples(FS) == 51
    epochs = pp.epoch_stream(recording, plan)
    assert len(epochs) == 33


def test_first_epoch_spans_initial_window():
    recording = Trial(np.arange(2 * 600, dtype=float).reshape(2, 600), FS)
    plan = pp.EpochPlan(1.5, 0.25)
    epochs = pp.epoch_stream(recording, plan)
    w = plan.window_samples(FS)
    assert epochs[0].samples == w
    assert_allclose(epochs[0].values, recording.values[:, :w], atol=0)


def test_epoching_lossless_tails():
    rng = np.random.default_rng(6)
    recording = Trial(rng.standard_normal((3, 2000)), FS)
    plan = pp.EpochPlan(3.6, 0.2)
    epochs = pp.epoch_stream(recording, plan)
    w = plan.window_samples(FS)
    step = plan.step_samples(FS)
    tails = np.hstack([e.values[:, -step:] for e in epochs[1:]])
    expected = recording.values[:, w:w + step * (len(epochs) - 1)]
    assert_allclose(tails, expected, atol=0)


def test_short_recording_yields_no_epochs():
    recording = Trial(np.zeros((2, 100)), FS)
    assert pp.epoch_stream(recording, pp.EpochPlan(3.6, 0.2)) == []
