"""Synthetic SSVEP-like dataset generation and dataset file I/O.

Stimulus-class trials carry a class-frequency sinusoid (plus optional
harmonic overtones) mixed into all channels through a fixed random
orthogonal matrix, on top of 1/f background noise; rest-class trials are
noise only. An optional transition-carryover window makes the head of
each trial continue the previous trial's frequency, emulating the lag
between a cue change and the actual synchronization of the response.

Datasets are stored in the "EEGSET v1" layout: a ``manifest.json``
describing shapes and labels plus one raw little-endian float64 payload
per trial, and a ``labels.csv`` for external tooling.
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ManifestError, MissingPayloadError, ValidationError
from .estimators import Trial
from .formats import INT, INTS, NUMBER, NUMBERS, OPTIONAL_OBJECT, STRING, \
    STRINGS, check_fields, f64_array, f64_bytes, read_header, write_csv, \
    write_json
from .preprocessing import DEFAULT_STIM_FREQS

FORMAT_VERSION = "EEGSET v1"

# The manifest written by save: every key, and the kind of its value.
_MANIFEST_FIELDS = {
    "version": STRING,
    "channels": INT,
    "sample_rate": NUMBER,
    "stim_freqs": NUMBERS,
    "labels": INTS,
    "samples": INTS,
    "payloads": STRINGS,
    "meta": OPTIONAL_OBJECT,
}

# The keys of the free-form ``meta`` object that the library reads.
_META_FIELDS = {
    "classes": INT,
    "stim_freqs": NUMBERS,
}


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic generator. The seed fully determines output."""

    channels: int = 8
    sample_rate: float = 256.0
    stim_freqs: tuple = DEFAULT_STIM_FREQS
    trial_seconds: float = 6.0
    trials_per_class: int = 8
    snr_db: float = 10.0
    harmonics: int = 1
    transition_carryover_seconds: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.channels < 1:
            raise ValidationError("channels must be positive")
        if self.sample_rate <= 0:
            raise ValidationError("sample_rate must be positive")
        if len(self.stim_freqs) < 1:
            raise ValidationError("at least one stimulus frequency is required")
        if self.trial_seconds <= 0:
            raise ValidationError("trial_seconds must be positive")
        if self.trials_per_class < 1:
            raise ValidationError("trials_per_class must be positive")
        if self.harmonics < 0:
            raise ValidationError("harmonics must be nonnegative")
        if self.transition_carryover_seconds < 0:
            raise ValidationError("transition carryover must be nonnegative")
        for name in ("sample_rate", "trial_seconds", "snr_db",
                     "transition_carryover_seconds"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not np.isfinite(self.trial_seconds * self.sample_rate):
            raise ValidationError("the sample count trial_seconds * "
                                  "sample_rate must be finite")
        if self.samples < 1:
            raise ValidationError(
                f"a trial of {self.trial_seconds} s at {self.sample_rate} Hz "
                f"has a sample count of 0")
        object.__setattr__(self, "stim_freqs",
                           tuple(float(f) for f in self.stim_freqs))
        # the Nyquist limit of the filter bands depends on the
        # half-bandwidth, so the commands that filter check it
        if not all(0 < f < np.inf for f in self.stim_freqs):
            raise ValidationError(
                f"stimulus frequencies must be positive and finite, got "
                f"{list(self.stim_freqs)}")
        top = max(self.stim_freqs) * (self.harmonics + 1)
        if top >= self.sample_rate / 2:
            raise ValidationError(
                f"{self.harmonics} harmonics of {max(self.stim_freqs)} Hz "
                f"reach {top} Hz, at or above the Nyquist frequency "
                f"{self.sample_rate / 2} Hz")

    @property
    def samples(self):
        """Samples per trial: ``round(trial_seconds * sample_rate)``."""
        return int(round(self.trial_seconds * self.sample_rate))

    @property
    def class_count(self):
        """Stimulus classes plus one resting class."""
        return len(self.stim_freqs) + 1

    def to_dict(self):
        return {**asdict(self), "stim_freqs": list(self.stim_freqs)}


@dataclass
class TrialSet:
    """Labelled trials with generator/recording metadata.

    Labels run from 1 to K; for generated data classes 1..F are the
    stimulus frequencies in order and class K = F+1 is rest.
    """

    trials: list
    labels: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.trials) != len(self.labels):
            raise ValidationError(
                f"{len(self.trials)} trials but {len(self.labels)} labels")
        k = self.class_count
        for i, lab in enumerate(self.labels):
            if not 1 <= lab <= k:
                raise ValidationError(
                    f"label {lab} at index {i} outside [1, {k}]")

    @property
    def class_count(self):
        if "classes" in self.meta:
            return int(self.meta["classes"])
        return int(max(self.labels, default=0))

    @property
    def sample_rate(self):
        return self.trials[0].sample_rate

    def subset(self, indices):
        return TrialSet([self.trials[i] for i in indices],
                        [self.labels[i] for i in indices],
                        dict(self.meta))


def _pink_noise(rng, rows, n):
    """Unit-variance 1/f noise per row."""
    white = rng.standard_normal((rows, n))
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])
    x = np.fft.irfft(spec * scale, n=n, axis=1)
    std = x.std(axis=1, keepdims=True)
    return x / np.maximum(std, 1e-30)


def generate(config):
    """Generate a deterministic labelled TrialSet from the config.

    The presentation order of trials is a seeded shuffle of a balanced
    label sequence; carryover couples each trial's head to the class of
    the trial presented immediately before it.
    """
    rng = np.random.default_rng(config.seed)
    c = config.channels
    fs = config.sample_rate
    n = config.samples
    freqs = config.stim_freqs
    nstim = len(freqs)
    k = config.class_count

    # Fixed random orthogonal mixing shared by all trials; sign-fixed so
    # the QR decomposition is unambiguous.
    gauss = rng.standard_normal((c, c))
    q, r = np.linalg.qr(gauss)
    mixing = q * np.sign(np.diag(r))
    noise_scale = rng.uniform(0.5, 1.5, size=c)
    amp = rng.uniform(0.3, 1.0, size=(nstim, c))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(nstim, c))

    labels = np.repeat(np.arange(1, k + 1), config.trials_per_class)
    rng.shuffle(labels)

    harmonic_gain = 1.0 / (1.0 + np.arange(config.harmonics + 1))
    noise_power = float(np.sum(noise_scale ** 2))
    sig_unit_power = 0.5 * np.sum(harmonic_gain ** 2) * np.sum(amp ** 2, axis=1)
    try:
        snr = 10.0 ** (config.snr_db / 10.0)
    except OverflowError:
        snr = np.inf
    gain = np.sqrt(snr * noise_power / sig_unit_power)
    if not np.isfinite(gain).all():
        raise ValidationError(f"snr_db {config.snr_db} gives a signal gain "
                              f"that is not finite")

    def class_signal(label, t):
        """Source-space signal of a class over global time t; rest is silent."""
        if label is None or label == k:
            return np.zeros((c, t.size))
        f = freqs[label - 1]
        a = gain[label - 1] * amp[label - 1][:, None]
        ph = phase[label - 1][:, None]
        out = np.zeros((c, t.size))
        for h, g in enumerate(harmonic_gain):
            out += g * np.sin(2.0 * np.pi * f * (h + 1) * t[None, :] + ph)
        return a * out

    head = int(min(np.floor(config.transition_carryover_seconds * fs), n))
    trials = []
    prev_label = None
    for idx, label in enumerate(labels):
        t = (idx * n + np.arange(n)) / fs
        sig = class_signal(int(label), t)
        if head > 0:
            # Crossfade: the previous trial's response rings out over the
            # head while the current one synchronizes, so the head is
            # dominated by the previous frequency.
            ramp = np.arange(head) / head
            carried = class_signal(prev_label, t[:head])
            sig[:, :head] = ramp * sig[:, :head] + (1.0 - ramp) * carried
        noise = _pink_noise(rng, c, n) * noise_scale[:, None]
        trials.append(Trial(mixing @ (sig + noise), fs))
        prev_label = int(label)

    meta = config.to_dict()
    meta["classes"] = k
    return TrialSet(trials, [int(x) for x in labels], meta)


def save(trial_set, path):
    """Write a TrialSet to ``path`` in the EEGSET v1 layout."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    payloads = []
    for i, trial in enumerate(trial_set.trials):
        name = f"trial_{i:04d}.f64"
        (path / name).write_bytes(f64_bytes(trial.values))
        payloads.append(name)
    channels = trial_set.trials[0].channels if trial_set.trials else 0
    write_json(path / "manifest.json", {
        "version": FORMAT_VERSION,
        "channels": channels,
        "sample_rate": trial_set.sample_rate if trial_set.trials else 0.0,
        "stim_freqs": list(trial_set.meta.get("stim_freqs", [])),
        "labels": list(trial_set.labels),
        "samples": [t.samples for t in trial_set.trials],
        "payloads": payloads,
        "meta": trial_set.meta,
    })
    write_csv(path / "labels.csv", ("trial", "label"),
              enumerate(trial_set.labels))
    return path


def load(path):
    """Read an EEGSET v1 dataset directory back into a TrialSet."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise ManifestError(f"no manifest.json in {path}")
    manifest = read_header(manifest_path.read_bytes(), _MANIFEST_FIELDS,
                           FORMAT_VERSION, "manifest.json")
    meta = dict(manifest.get("meta", {}))
    check_fields(meta, _META_FIELDS, "manifest.json.meta", exact=False)
    labels = manifest["labels"]
    samples = manifest["samples"]
    payloads = manifest["payloads"]
    if not (len(labels) == len(samples) == len(payloads)):
        raise ManifestError(
            "labels, samples, and payloads must have equal lengths")
    sample_rate = float(manifest["sample_rate"])
    trials = []
    for name, count in zip(payloads, samples):
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ManifestError(f"payload name {name!r} is not a plain file "
                                f"name inside the dataset directory")
        payload_path = path / name
        if not payload_path.is_file():
            raise MissingPayloadError(f"payload {name} referenced by "
                                      f"manifest.json is missing")
        values = f64_array(payload_path.read_bytes(),
                           (manifest["channels"], count), f"payload {name}")
        trials.append(Trial(values, sample_rate))
    meta.setdefault("stim_freqs", manifest["stim_freqs"])
    return TrialSet(trials, labels, meta)


def stratified_split(trial_set, train_per_class):
    """Deterministic split: first ``train_per_class`` trials of each class
    (in presentation order) train, the rest test."""
    taken = {}
    train_idx, test_idx = [], []
    for i, lab in enumerate(trial_set.labels):
        if taken.get(lab, 0) < train_per_class:
            train_idx.append(i)
            taken[lab] = taken.get(lab, 0) + 1
        else:
            test_idx.append(i)
    return trial_set.subset(train_idx), trial_set.subset(test_idx)
