import itertools

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


def test_infinite_sample_rates_are_refused():
    with pytest.raises(ValidationError, match="sample_rate must be"):
        pp.design_bandpass(pp.FilterSpec(13.0, 1.0, 8, np.inf))
    with pytest.raises(ValidationError, match="sample_rate must be"):
        Trial(np.ones((2, 3)), np.inf)


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


def _block_filtered(bank, values, lengths):
    """Feed ``values`` to ``bank`` in frames cycling through ``lengths``,
    up to the last whole frame; returns the output and the sample count."""
    out, pos = [], 0
    for length in itertools.cycle(lengths):
        if pos + length > values.shape[1]:
            return np.hstack(out), pos
        out.append(bank.process(values[:, pos:pos + length]))
        pos += length


def _assert_block_path_matches_sosfilt(order, fs, lengths, seconds=600.0):
    """Block maps against one-piece sosfilt over ``seconds`` of noise:
    outputs within 1e-13 of each row's peak, final states within 1e-13
    of each band's largest state entry."""
    values = np.random.default_rng(5).standard_normal((2, int(seconds * fs)))
    bank = pp.BandpassFilterBank((13.0, 21.0), 2, fs, order=order,
                                 block_lengths=lengths)
    out, used = _block_filtered(bank, values, lengths)
    ref = pp.BandpassFilterBank((13.0, 21.0), 2, fs, order=order)
    whole = ref.process(values[:, :used])
    peak = np.abs(whole).max(axis=1, keepdims=True)
    assert np.all(np.abs(out - whole) <= 1e-13 * peak)
    for zi, zi_ref in zip(bank._state, ref._state):
        assert np.abs(zi - zi_ref).max() <= 1e-13 * np.abs(zi_ref).max()


@pytest.mark.parametrize("fs", [256.0, 512.0])
@pytest.mark.parametrize("order", [2, 4, 8])
def test_block_maps_match_one_piece_sosfilt(order, fs):
    # 10 min in frames cycling through every block length, so each map
    # hands its state on to each other one
    _assert_block_path_matches_sosfilt(order, fs, (1, 3, 51, 128))


@pytest.mark.parametrize("length", [1, 3, 51, 128])
def test_each_block_map_alone_matches_one_piece_sosfilt(length):
    _assert_block_path_matches_sosfilt(8, FS, (length,))


def test_block_maps_share_state_with_sosfilt_frames():
    # frames of other lengths go through sosfilt from the same state
    values = np.random.default_rng(6).standard_normal((4, 3000))
    bank = pp.BandpassFilterBank([13.0, 17.0, 21.0], 4, FS,
                                 block_lengths=(51,))
    out, used = _block_filtered(bank, values, (51, 32, 51, 7))
    whole = pp.BandpassFilterBank([13.0, 17.0, 21.0], 4, FS).process(
        values[:, :used])
    assert_allclose(out, whole, rtol=0, atol=1e-13 * np.abs(whole).max())


def test_bands_filter_in_one_batched_product_bitwise():
    # each band's share of the batched product is that band's own
    # [state, frame] @ M product, state handed on in sosfilt's layout
    values = np.random.default_rng(7).standard_normal((4, 51 * 12 + 3))
    freqs = (13.0, 17.0, 21.0)
    bank = pp.BandpassFilterBank(freqs, 4, FS, block_lengths=(3, 51))
    out = _block_filtered(bank, values, (3,) + (51,) * 12)[0]
    expected = []
    for sos in pp.design_bands(freqs, 1.0, 8, FS):
        state, parts, pos = np.zeros((4, 2 * len(sos))), [], 0
        for length in (3,) + (51,) * 12:
            y = np.hstack([state, values[:, pos:pos + length]]) \
                @ pp.block_map(sos, length)
            parts.append(y[:, :length])
            state, pos = y[:, length:], pos + length
        expected.append(np.hstack(parts))
    assert np.vstack(expected).tobytes() == out.tobytes()


def test_bank_rejects_designs_of_unequal_shapes():
    sos = [pp.design_bandpass(pp.FilterSpec(f, 1.0, order, FS))
           for f, order in ((13.0, 8), (17.0, 4))]
    with pytest.raises(ValidationError, match="unequal shapes"):
        pp.BandpassFilterBank((13.0, 17.0), 2, FS, sos=sos)


def test_block_map_is_sosfilt_on_unit_inputs():
    # the map's input columns are the impulse response and its shifts
    sos = pp.design_bandpass(pp.FilterSpec(17.0, 1.0, 8, FS))
    m_map = pp.block_map(sos, 5)
    assert m_map.shape == (8 + 5, 5 + 8)
    impulse = signal.sosfilt(sos, np.eye(1, 5)[0])
    assert_allclose(m_map[8, :5], impulse, rtol=0, atol=0)
    assert_allclose(m_map[9, 1:5], impulse[:4], rtol=0, atol=0)


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


def test_step_shorter_than_a_sample_rejected():
    plan = pp.EpochPlan(1.0, 0.001)
    with pytest.raises(ValidationError, match="shorter than one sample"):
        pp.epoch_stream(Trial(np.zeros((2, 600)), FS), plan)
    with pytest.raises(ValidationError, match="shorter than one sample"):
        plan.grid_blocks(FS)


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


@pytest.mark.parametrize("window, step, first", [
    (3.6, 0.2, 3),     # 921 = 18 * 51 + 3
    (4.0, 0.25, 64),   # 1024 = 16 * 64: the grid starts with a full step
    (1.5, 0.25, 64),   # 384 = 6 * 64
    (1.0, 0.3, 28),    # 256 = 3 * 76 + 28
])
def test_grid_blocks_end_on_every_epoch_end(window, step, first):
    plan = pp.EpochPlan(window, step)
    w_s, d_s = plan.window_samples(FS), plan.step_samples(FS)
    assert plan.grid_blocks(FS) == (first, d_s)
    boundaries = set(range(first, 20 * w_s + 1, d_s))
    assert set(pp.epoch_ends(20 * w_s, w_s, d_s)) <= boundaries


def test_short_recording_yields_no_epochs():
    recording = Trial(np.zeros((2, 100)), FS)
    assert pp.epoch_stream(recording, pp.EpochPlan(3.6, 0.2)) == []
