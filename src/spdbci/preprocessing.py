"""Causal band-pass filtering, frequency stacking, and epoching.

A trial recorded on C channels is expanded into an F*C-row "extended"
trial by band-pass filtering it around each of the F stimulus
frequencies and stacking the filtered copies vertically. Covariances of
the extended trial then carry the per-frequency power structure that the
plain spatial covariance would miss.

Filtering is causal (forward-only) everywhere so that offline training
and online streaming see identically distorted signals. Offline, the
filter state starts from zero at each trial boundary; online, state
persists across epochs because epochs are windows into one continuously
filtered stream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FilterDesignError, ValidationError
from .estimators import Trial

DEFAULT_STIM_FREQS = (13.0, 17.0, 21.0)
DEFAULT_HALF_BANDWIDTH = 1.0
DEFAULT_FILTER_ORDER = 8


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth band-pass description.

    ``order`` is the order of the final band-pass filter and must be even
    (a band-pass of order 2k is built from a prototype of order k). The
    passband is ``center_freq +- half_bandwidth``.
    """

    center_freq: float
    half_bandwidth: float
    order: int
    sample_rate: float

    def __post_init__(self):
        if not (self.center_freq > 0 and self.half_bandwidth > 0):
            raise ValidationError("center_freq and half_bandwidth must be positive")
        if not 0 < self.sample_rate < math.inf:
            raise ValidationError("sample_rate must be positive and finite")
        if self.order < 2 or self.order % 2 != 0:
            raise ValidationError("order must be an even integer >= 2")
        if self.center_freq + self.half_bandwidth >= self.sample_rate / 2.0:
            raise ValidationError(
                f"passband edge {self.center_freq + self.half_bandwidth} Hz "
                f"reaches the Nyquist frequency {self.sample_rate / 2.0} Hz")


@dataclass(frozen=True)
class EpochPlan:
    """Sliding-window layout: window length w and stride dN, in seconds.

    Windows must overlap (w > dN > 0). Sample counts are obtained by
    flooring seconds * sample_rate.
    """

    window_seconds: float
    step_seconds: float

    def __post_init__(self):
        if not self.window_seconds > self.step_seconds > 0:
            raise ValidationError(
                f"epoch plan requires window > step > 0, got "
                f"window={self.window_seconds}, step={self.step_seconds}")
        if not math.isfinite(self.window_seconds):
            raise ValidationError("window must be finite")

    def window_samples(self, sample_rate):
        return _sample_count(self.window_seconds, sample_rate, "window")

    def step_samples(self, sample_rate):
        d_s = _sample_count(self.step_seconds, sample_rate, "step")
        if d_s < 1:
            raise ValidationError(
                f"a step of {self.step_seconds} s is shorter than one "
                f"sample at {sample_rate} Hz")
        return d_s

    def grid_blocks(self, sample_rate):
        """``(first, later)`` block lengths of the grid whose boundaries
        ``w_s - k d_s`` include every epoch end: the first block holds
        ``w_s mod d_s`` samples (``d_s`` when that is 0), each later one
        ``d_s``."""
        w_s = self.window_samples(sample_rate)
        d_s = self.step_samples(sample_rate)
        return w_s % d_s or d_s, d_s


def _sample_count(seconds, sample_rate, name):
    """``floor(seconds * sample_rate)``, refused when it is not finite."""
    count = np.floor(seconds * sample_rate)
    if not math.isfinite(count):
        raise ValidationError(
            f"a {name} of {seconds} s at {sample_rate} Hz has no finite "
            f"sample count")
    return int(count)


def design_bandpass(spec):
    """Design a causal Butterworth band-pass as second-order sections.

    The passband is [center - hb, center + hb] at the spec's order.
    Designs whose poles leave the unit circle or whose gain is not finite
    (very high orders) are rejected.
    """
    # scipy.signal costs most of a second to import (it loads
    # scipy.stats), so only the commands that filter pay for it
    from scipy import signal

    low = spec.center_freq - spec.half_bandwidth
    high = spec.center_freq + spec.half_bandwidth
    if low <= 0:
        raise FilterDesignError(
            f"low passband edge {low} Hz must be positive")
    # at high orders the products in the gain overflow to a NaN gain,
    # which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        zeros, poles, gain = signal.butter(
            spec.order // 2, [low, high], btype="bandpass",
            fs=spec.sample_rate, output="zpk")
    if not (np.isfinite(gain) and np.all(np.abs(poles) < 1.0)):
        raise FilterDesignError(
            f"no usable design: gain {gain:.3g}, largest pole magnitude "
            f"{np.abs(poles).max():.6f} for passband [{low}, {high}] Hz at "
            f"order {spec.order}")
    return signal.zpk2sos(zeros, poles, gain)


def design_bands(stim_freqs, half_bandwidth, order, sample_rate):
    """One :func:`design_bandpass` per stimulus frequency, in order."""
    return tuple(design_bandpass(FilterSpec(f, half_bandwidth, order,
                                            sample_rate))
                 for f in stim_freqs)


def block_map(sos, length):
    """The linear map of a section cascade over one block of ``length``
    samples, as :func:`scipy.signal.sosfilt` runs it.

    Per channel, ``[state, input] @ M`` is ``[output, new state]``: the
    state is the channel's ``zi[:, channel, :]`` of sosfilt (2 values per
    section) flattened in C order, and input and output are ``length``
    samples (block state-space filtering; Burrus, IEEE Trans. Audio
    Electroacoust. 1972). M is read off sosfilt's own responses to the
    unit states and unit inputs, filtered in one batched call, so it
    keeps sosfilt's state convention.
    """
    from scipy.signal import sosfilt

    sections = sos.shape[0]
    n = 2 * sections
    units = np.eye(n + length)
    zi = units[:, :n].reshape(n + length, sections, 2).transpose(1, 0, 2)
    out, zf = sosfilt(sos, units[:, n:], axis=1, zi=zi)
    return np.hstack([out, zf.transpose(1, 0, 2).reshape(n + length, n)])


class BandpassFilterBank:
    """Causal filter bank over a set of stimulus frequencies.

    Holds per-band recurrence state so a live stream can be filtered in
    arbitrary chunks with output identical to filtering it in one piece.
    One instance serves one stream (single writer); create a fresh
    instance per trial for offline use so state starts from zero.

    ``sos`` takes sections already designed for these frequencies (one
    array per frequency, as :func:`design_bands` returns them); the bank
    filters with its own copies. Without it the bank designs its own.

    A frame whose length is one of ``block_lengths`` is filtered by that
    length's precomputed :func:`block_map` (one batched product
    ``[state, frame] @ M_f`` over the F bands) instead of ``sosfilt``; the
    two agree to roundoff and share the state, so they may alternate.
    Filtering a stream in blocks of fixed lengths gives the same bits
    however the caller chops the stream. Every band's design must have
    the same number of sections.
    """

    def __init__(self, stim_freqs, channels, sample_rate,
                 half_bandwidth=DEFAULT_HALF_BANDWIDTH,
                 order=DEFAULT_FILTER_ORDER, sos=None, block_lengths=()):
        if len(stim_freqs) < 1:
            raise ValidationError("at least one stimulus frequency is required")
        self.stim_freqs = tuple(float(f) for f in stim_freqs)
        self.channels = int(channels)
        self.sample_rate = float(sample_rate)
        if sos is None:
            sos = design_bands(self.stim_freqs, float(half_bandwidth),
                               int(order), self.sample_rate)
        elif len(sos) != len(self.stim_freqs) \
                or len({np.shape(s) for s in sos}) != 1:
            raise ValidationError(
                f"{len(sos)} filter designs for {len(self.stim_freqs)} "
                f"stimulus frequencies, or of unequal shapes")
        self.sos = [np.array(s, dtype=float) for s in sos]
        # bound once here (see design_bandpass), not looked up per frame
        from scipy.signal import sosfilt

        self._sosfilt = sosfilt
        # per band and channel, sosfilt's zi[:, channel, :] flattened
        self._state = np.zeros((len(self.sos), self.channels,
                                2 * self.sos[0].shape[0]))
        self._maps = {length: np.array([block_map(s, length)
                                        for s in self.sos])
                      for length in map(int, block_lengths)}

    def process(self, frame):
        """Filter a (channels x m) chunk; returns the (F*C x m) stacked output."""
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] != self.channels:
            raise ValidationError(
                f"frame must have {self.channels} rows, got shape {frame.shape}")
        bands, channels, n = self._state.shape
        length = frame.shape[1]
        maps = self._maps.get(length)
        if maps is not None:
            y = np.empty((bands, channels, n + length))
            y[..., :n] = self._state
            y[..., n:] = frame
            y = y @ maps
            self._state = y[..., length:]
            return y[..., :length].reshape(bands * channels, length)
        blocks = []
        for band, sos in enumerate(self.sos):
            zi = self._state[band].reshape(channels, -1, 2).transpose(1, 0, 2)
            out, zf = self._sosfilt(sos, frame, axis=1, zi=zi)
            self._state[band] = zf.transpose(1, 0, 2).reshape(channels, n)
            blocks.append(out)
        return np.vstack(blocks)


def extend_trial(trial, stim_freqs, half_bandwidth=DEFAULT_HALF_BANDWIDTH,
                 order=DEFAULT_FILTER_ORDER, sos=None):
    """Stack band-pass filtered copies of a trial, one block per frequency.

    Block f of the output holds the trial filtered around
    ``stim_freqs[f]``; the result has F*C rows and the original sample
    count. Filter state starts from zero (trial boundary). ``sos`` is
    passed to :class:`BandpassFilterBank`.
    """
    bank = BandpassFilterBank(stim_freqs, trial.channels, trial.sample_rate,
                              half_bandwidth, order, sos)
    return Trial(bank.process(trial.values), trial.sample_rate)


def check_latency(latency_seconds):
    """Refuse a latency that is negative or not finite."""
    if latency_seconds < 0:
        raise ValidationError("latency must be nonnegative")
    if not math.isfinite(latency_seconds):
        raise ValidationError("latency must be finite")


def latency_samples(latency_seconds, samples, sample_rate):
    """The floor(latency * fs) samples a latency drops from the head of a
    ``samples``-sample trial; raises ValidationError when the latency
    fails :func:`check_latency` or leaves no data."""
    check_latency(latency_seconds)
    skip = np.floor(latency_seconds * sample_rate)
    if skip >= samples:
        raise ValidationError(
            f"latency of {skip:.0f} samples leaves no data in a "
            f"{samples}-sample trial")
    return int(skip)


def trim_latency(trial, latency_seconds):
    """Drop the first floor(latency * fs) samples of a trial."""
    skip = latency_samples(latency_seconds, trial.samples, trial.sample_rate)
    if skip == 0:
        return trial
    return Trial(trial.values[:, skip:], trial.sample_rate)


def epoch_stream(recording, plan):
    """Cut a recording into overlapping sliding-window epochs.

    Epoch boundaries sit at n = w_s, w_s + d_s, ... (sample counts from
    :class:`EpochPlan`); epoch i is the window of the last w_s samples
    before boundary n, so consecutive epochs overlap by w_s - d_s
    samples. A recording shorter than one window yields no epochs.
    """
    w_s = plan.window_samples(recording.sample_rate)
    d_s = plan.step_samples(recording.sample_rate)
    return [Trial(recording.values[:, end - w_s:end], recording.sample_rate)
            for end in epoch_ends(recording.samples, w_s, d_s)]


def epoch_ends(samples, w_s, d_s):
    """Boundaries n = w_s, w_s + d_s, ... of the full windows of w_s
    samples, d_s apart, within the first ``samples`` samples of a
    recording, as a ``range``. The epoch closing at n holds samples
    ``n - w_s`` to ``n - 1``."""
    return range(w_s, samples + 1, d_s)
