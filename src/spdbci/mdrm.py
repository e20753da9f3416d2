"""Minimum-distance-to-mean classification on the SPD manifold.

Training estimates one geometric-mean covariance center per class from
labelled trials; classification assigns a trial to the class whose
center is nearest in geodesic distance. A distance-based outlier filter
("potato") can drop wildly atypical training covariances before the
centers are computed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import manifold
from .errors import ConvergenceError, ManifestError, ShapeMismatchError, \
    UnsupportedVersionError, ValidationError
from .estimators import EstimatorSpec, estimate
from .preprocessing import (
    DEFAULT_FILTER_ORDER,
    DEFAULT_HALF_BANDWIDTH,
    extend_trial,
    trim_latency,
)

MODEL_FORMAT_VERSION = "MDRM v1"

# The model header written by save_model: every key, and the kind of its
# value.
_INT = "an integer"
_NUMBER = "a finite number"
_NUMBER_OR_NULL = "a finite number or null"
_NUMBERS = "a list of finite numbers"
_STRING = "a string"
_HEADER_FIELDS = {
    "version": _STRING,
    "class_count": _INT,
    "dim": _INT,
    "estimator_spec": {
        "kind": _STRING, "target": _STRING, "kappa": _NUMBER_OR_NULL,
        "blankertz_scale": _STRING, "fp_tolerance": _NUMBER,
        "fp_max_iterations": _INT,
    },
    "preproc_spec": {
        "stim_freqs": _NUMBERS, "sample_rate": _NUMBER,
        "half_bandwidth": _NUMBER, "filter_order": _INT,
        "latency_seconds": _NUMBER,
    },
    "mean_tolerance": _NUMBER,
    "mean_max_iterations": _INT,
}

DEFAULT_POTATO_Z = 2.5

DEFAULT_STIM_FREQS = (13.0, 17.0, 21.0)

# A mean pooled across classes sits between well-separated clusters, where
# the mean iteration converges slowly; such references only anchor
# distance z-scores or plot coordinates, so modest precision is plenty.
POOLED_MEAN_TOLERANCE = 1e-4
POOLED_MEAN_MAX_ITERATIONS = 300


@dataclass(frozen=True)
class PreprocSpec:
    """Preprocessing applied to every trial before covariance estimation.

    Recorded in the trained model so classification reproduces the
    training path exactly.
    """

    stim_freqs: tuple
    sample_rate: float
    half_bandwidth: float = DEFAULT_HALF_BANDWIDTH
    filter_order: int = DEFAULT_FILTER_ORDER
    latency_seconds: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "stim_freqs",
                           tuple(float(f) for f in self.stim_freqs))
        if self.latency_seconds < 0:
            raise ValidationError("latency must be nonnegative")

    @classmethod
    def for_trial_set(cls, trial_set, **overrides):
        """Preprocessing for a trial set: its stimulus frequencies (from
        ``meta``, else :data:`DEFAULT_STIM_FREQS`) and sample rate, with
        any other field given in ``overrides``."""
        freqs = tuple(trial_set.meta.get("stim_freqs", ())) or DEFAULT_STIM_FREQS
        return cls(stim_freqs=freqs, sample_rate=trial_set.sample_rate,
                   **overrides)

    def to_dict(self):
        return {
            "stim_freqs": list(self.stim_freqs),
            "sample_rate": self.sample_rate,
            "half_bandwidth": self.half_bandwidth,
            "filter_order": self.filter_order,
            "latency_seconds": self.latency_seconds,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(stim_freqs=tuple(d["stim_freqs"]),
                   sample_rate=d["sample_rate"],
                   half_bandwidth=d["half_bandwidth"],
                   filter_order=d["filter_order"],
                   latency_seconds=d["latency_seconds"])


@dataclass(frozen=True)
class ClassModel:
    """Trained class centers plus everything needed to reapply training
    preprocessing: estimator spec, preprocessing spec, mean solver config."""

    centers: tuple
    estimator_spec: EstimatorSpec
    preproc_spec: PreprocSpec
    mean_tolerance: float = manifold.DEFAULT_MEAN_TOLERANCE
    mean_max_iterations: int = manifold.DEFAULT_MEAN_MAX_ITERATIONS

    @property
    def class_count(self):
        return len(self.centers)

    @property
    def dim(self):
        return self.centers[0].shape[0]


@dataclass(frozen=True)
class PotatoResult:
    """Outcome of distance-based outlier filtering.

    ``degenerate`` is set when the distance spread was too small to score
    (all matrices effectively equidistant), in which case everything is
    kept.
    """

    kept: tuple
    rejected: tuple
    distances: tuple
    zscores: tuple
    degenerate: bool = False


def preprocess_trial(trial, preproc, latency_override=None):
    """Trim cue latency and build the frequency-stacked extended trial."""
    if abs(trial.sample_rate - preproc.sample_rate) > 1e-9:
        raise ValidationError(
            f"trial sample rate {trial.sample_rate} does not match the "
            f"model's {preproc.sample_rate}")
    latency = preproc.latency_seconds if latency_override is None \
        else latency_override
    if latency > 0:
        trial = trim_latency(trial, latency)
    return extend_trial(trial, preproc.stim_freqs, preproc.half_bandwidth,
                        preproc.filter_order)


def trial_covariance(trial, preproc, estimator_spec, latency_override=None):
    """Covariance of a trial after the model's preprocessing."""
    return estimate(preprocess_trial(trial, preproc, latency_override),
                    estimator_spec)


def train(trial_set, estimator_spec=None, preproc_spec=None,
          potato_z=None, mean_tolerance=manifold.DEFAULT_MEAN_TOLERANCE,
          mean_max_iterations=manifold.DEFAULT_MEAN_MAX_ITERATIONS,
          threads=1):
    """Estimate per-class geometric-mean centers from labelled trials.

    Per trial: trim latency, band-pass stack, estimate covariance. Per
    class: geometric mean of that class's covariances. With ``potato_z``
    set, covariances are filtered once against the pooled geometric mean
    before the class centers are computed.

    Returns ``(model, report)`` where the report records the kappa values
    used (shrinkage) and, when the potato filter ran, per-class rejection
    counts so the caller can veto overzealous filtering.

    ``threads`` is accepted and ignored: work is single-threaded apart
    from BLAS.
    """
    if estimator_spec is None:
        estimator_spec = EstimatorSpec()
    if preproc_spec is None:
        preproc_spec = PreprocSpec.for_trial_set(trial_set)
    k = trial_set.class_count
    if k < 2:
        raise ValidationError("training needs at least 2 classes")
    labels = list(trial_set.labels)
    for cls in range(1, k + 1):
        if cls not in labels:
            raise ValidationError(f"class {cls} has no training trials")

    covs = [trial_covariance(t, preproc_spec, estimator_spec)
            for t in trial_set.trials]

    report = {"trials": len(covs), "class_count": k}
    if potato_z is not None:
        potato = potato_filter(covs, z_threshold=potato_z)
        rejected_by_class = {cls: 0 for cls in range(1, k + 1)}
        for i in potato.rejected:
            rejected_by_class[labels[i]] += 1
        report["potato"] = {
            "z_threshold": potato_z,
            "kept": len(potato.kept),
            "rejected": len(potato.rejected),
            "rejected_by_class": rejected_by_class,
            "degenerate": potato.degenerate,
        }
        covs = [covs[i] for i in potato.kept]
        labels = [labels[i] for i in potato.kept]
        for cls in range(1, k + 1):
            if cls not in labels:
                raise ValidationError(
                    f"outlier filter removed every trial of class {cls}; "
                    f"lower the z threshold")

    def class_mean(cls):
        members = [cov for cov, lab in zip(covs, labels) if lab == cls]
        try:
            return manifold.karcher_mean(members, mean_tolerance,
                                         mean_max_iterations)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"class {cls} center did not converge: {exc}",
                last_iterate=exc.last_iterate,
                residual=exc.residual) from exc

    centers = [class_mean(cls) for cls in range(1, k + 1)]
    model = ClassModel(tuple(centers), estimator_spec, preproc_spec,
                       mean_tolerance, mean_max_iterations)
    return model, report


def classify_covariance(cov, model):
    """Nearest class center for a precomputed covariance.

    Returns ``(label, distances)`` with all class distances so callers
    can normalize or gate on them. Exact ties go to the lowest class
    index.
    """
    if cov.shape[0] != model.dim:
        raise ValidationError(
            f"covariance dim {cov.shape[0]} does not match model dim "
            f"{model.dim}")
    dists = np.array([manifold.distance(cov, center)
                      for center in model.centers])
    return int(np.argmin(dists)) + 1, dists


def classify(trial, model, latency_override=None):
    """Classify a raw trial with the model's recorded preprocessing."""
    cov = trial_covariance(trial, model.preproc_spec, model.estimator_spec,
                           latency_override)
    return classify_covariance(cov, model)


def potato_filter(covs, z_threshold=DEFAULT_POTATO_Z,
                  mean_tolerance=POOLED_MEAN_TOLERANCE,
                  mean_max_iterations=POOLED_MEAN_MAX_ITERATIONS):
    """Keep covariances whose distance to the pooled mean is unexceptional.

    The reference is the geometric mean of all inputs; matrix i is kept
    when the z-score of its distance to the reference is at most
    ``z_threshold``. A near-zero distance spread means nothing can be an
    outlier: everything is kept and the result is flagged degenerate.
    """
    if z_threshold <= 0:
        raise ValidationError("z_threshold must be positive")
    if len(covs) < 2:
        raise ValidationError("outlier filtering needs at least 2 matrices")
    reference = manifold.karcher_mean(covs, mean_tolerance, mean_max_iterations)
    dists = np.array([manifold.distance(cov, reference) for cov in covs])
    spread = float(dists.std())
    if spread < 1e-12:
        return PotatoResult(kept=tuple(range(len(covs))), rejected=(),
                            distances=tuple(dists),
                            zscores=tuple(np.zeros(len(covs))),
                            degenerate=True)
    z = (dists - dists.mean()) / spread
    kept = tuple(int(i) for i in np.flatnonzero(z <= z_threshold))
    rejected = tuple(int(i) for i in np.flatnonzero(z > z_threshold))
    return PotatoResult(kept=kept, rejected=rejected,
                        distances=tuple(float(d) for d in dists),
                        zscores=tuple(float(v) for v in z))


def save_model(model, path):
    """Serialize a model: one-line JSON header, then raw float64 centers."""
    header = {
        "version": MODEL_FORMAT_VERSION,
        "class_count": model.class_count,
        "dim": model.dim,
        "estimator_spec": model.estimator_spec.to_dict(),
        "preproc_spec": model.preproc_spec.to_dict(),
        "mean_tolerance": model.mean_tolerance,
        "mean_max_iterations": model.mean_max_iterations,
    }
    payload = b"".join(
        np.ascontiguousarray(c, dtype="<f8").tobytes(order="C")
        for c in model.centers)
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    Path(path).write_bytes(blob)
    return Path(path)


def load_model(path):
    """Read a model written by :func:`save_model`, bit-exactly."""
    blob = Path(path).read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise ManifestError(f"{path} has no model header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"unreadable model header: {exc}") from exc
    if not isinstance(header, dict):
        raise ManifestError("model header must be a JSON object")
    if header.get("version") != MODEL_FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported model version {header.get('version')!r}")
    _check_fields(header, _HEADER_FIELDS, "model header")
    k = header["class_count"]
    dim = header["dim"]
    n_freqs = len(header["preproc_spec"]["stim_freqs"])
    if k < 1 or dim < 1 or n_freqs < 1 or dim % n_freqs:
        raise ManifestError(
            f"model header declares {k} classes of dim {dim} over "
            f"{n_freqs} stimulus frequencies")
    payload = blob[newline + 1:]
    expected = k * dim * dim * 8
    if len(payload) != expected:
        raise ShapeMismatchError(
            f"model payload holds {len(payload)} bytes, header implies "
            f"{expected}")
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise ManifestError("model payload holds non-finite values")
    centers = tuple(flat[i * dim * dim:(i + 1) * dim * dim]
                    .reshape(dim, dim).copy() for i in range(k))
    try:
        estimator_spec = EstimatorSpec.from_dict(header["estimator_spec"])
        preproc_spec = PreprocSpec.from_dict(header["preproc_spec"])
    except ValidationError as exc:
        raise ManifestError(f"invalid model header: {exc}") from exc
    return ClassModel(
        centers=centers,
        estimator_spec=estimator_spec,
        preproc_spec=preproc_spec,
        mean_tolerance=header["mean_tolerance"],
        mean_max_iterations=header["mean_max_iterations"],
    )


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _fits(value, kind):
    if kind == _INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == _NUMBER:
        return _is_number(value)
    if kind == _NUMBER_OR_NULL:
        return value is None or _is_number(value)
    if kind == _NUMBERS:
        return isinstance(value, list) and all(map(_is_number, value))
    return isinstance(value, str)


def _check_fields(obj, fields, where):
    """Raise ManifestError unless ``obj`` is a JSON object holding exactly
    the keys of ``fields``, each value of its kind (nested dicts recurse)."""
    if not isinstance(obj, dict):
        raise ManifestError(f"{where} must be a JSON object")
    missing = sorted(set(fields) - set(obj))
    unexpected = sorted(set(obj) - set(fields))
    if missing or unexpected:
        raise ManifestError(f"{where} lacks keys {missing} or has "
                            f"unexpected keys {unexpected}")
    for key, kind in fields.items():
        if isinstance(kind, dict):
            _check_fields(obj[key], kind, f"{where}.{key}")
        elif not _fits(obj[key], kind):
            raise ManifestError(
                f"{where}.{key} must be {kind}, got {obj[key]!r}")
