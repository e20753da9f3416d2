import itertools

import numpy as np
import pytest

from spdbci import synthgen
from spdbci.estimators import EstimatorSpec
from spdbci.mdrm import PreprocSpec


def random_spd(rng, dim, spread=1.0):
    """Random SPD matrix with eigenvalues roughly exp(spread * normal)."""
    a = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    eigs = np.exp(spread * rng.standard_normal(dim))
    return (q * eigs) @ q.T


def frames_of(values, sizes):
    """``values`` (channels x samples) cut into consecutive frames whose
    lengths cycle through ``sizes``; the last frame may be shorter."""
    frames, start = [], 0
    for size in itertools.cycle(sizes):
        if start >= values.shape[1]:
            return frames
        frames.append(values[:, start:start + size])
        start += size


def random_sym(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) * scale
    return (a + a.T) / 2.0


@pytest.fixture(scope="session")
def clean_set():
    """High-SNR, no-carryover synthetic set: 16 trials/class for splits."""
    return synthgen.generate(
        synthgen.GenConfig(trials_per_class=16, snr_db=30.0, seed=11))


@pytest.fixture(scope="session")
def carryover_set():
    """Moderate-SNR set whose trial heads continue the previous stimulus."""
    return synthgen.generate(
        synthgen.GenConfig(trials_per_class=16, snr_db=10.0,
                           transition_carryover_seconds=2.0, seed=3))


@pytest.fixture(scope="session")
def default_preproc(clean_set):
    return PreprocSpec(stim_freqs=tuple(clean_set.meta["stim_freqs"]),
                       sample_rate=clean_set.sample_rate)


@pytest.fixture(scope="session")
def schafer_spec():
    return EstimatorSpec(kind="shrinkage", target="schafer")
