"""Minimum-distance-to-mean classification on the SPD manifold.

Training estimates one geometric-mean covariance center per class from
labelled trials; classification assigns a trial to the class whose
center is nearest in geodesic distance. A distance-based outlier filter
("potato") can drop wildly atypical training covariances before the
centers are computed.
"""

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import manifold
from .errors import ConvergenceError, ManifestError, ValidationError
from .estimators import EstimatorSpec, estimate
from .formats import INT, NUMBER, NUMBER_OR_NULL, NUMBERS, STRING, \
    f64_array, f64_bytes, read_header
from .preprocessing import (
    DEFAULT_FILTER_ORDER,
    DEFAULT_HALF_BANDWIDTH,
    DEFAULT_STIM_FREQS,
    FilterSpec,
    check_latency,
    design_bands,
    extend_trial,
    trim_latency,
)

MODEL_FORMAT_VERSION = "MDRM v1"

# The model header written by save_model: every key, and the kind of its
# value.
_HEADER_FIELDS = {
    "version": STRING,
    "class_count": INT,
    "dim": INT,
    "estimator_spec": {
        "kind": STRING, "target": STRING, "kappa": NUMBER_OR_NULL,
        "blankertz_scale": STRING, "fp_tolerance": NUMBER,
        "fp_max_iterations": INT,
    },
    "preproc_spec": {
        "stim_freqs": NUMBERS, "sample_rate": NUMBER,
        "half_bandwidth": NUMBER, "filter_order": INT,
        "latency_seconds": NUMBER,
    },
    "mean_tolerance": NUMBER,
    "mean_max_iterations": INT,
}

DEFAULT_POTATO_Z = 2.5

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
        check_latency(self.latency_seconds)
        for freq in self.stim_freqs:
            FilterSpec(freq, self.half_bandwidth, self.filter_order,
                       self.sample_rate)

    @cached_property
    def sos(self):
        """Second-order sections of each stimulus frequency's band-pass,
        designed on first use and then shared by every filter bank built
        from this spec (each bank filters with its own copy)."""
        return design_bands(self.stim_freqs, self.half_bandwidth,
                            self.filter_order, self.sample_rate)

    def check_sample_rate(self, sample_rate):
        """Reject data recorded at another rate than this preprocessing's."""
        if abs(sample_rate - self.sample_rate) > 1e-9:
            raise ValidationError(
                f"trial sample rate {sample_rate} does not match the "
                f"model's {self.sample_rate}")

    @classmethod
    def for_trial_set(cls, trial_set, **overrides):
        """Preprocessing for a trial set: its stimulus frequencies (from
        ``meta``, else :data:`DEFAULT_STIM_FREQS`) and sample rate, with
        any other field given in ``overrides``."""
        freqs = tuple(trial_set.meta.get("stim_freqs", ())) or DEFAULT_STIM_FREQS
        return cls(stim_freqs=freqs, sample_rate=trial_set.sample_rate,
                   **overrides)

    def to_dict(self):
        return {**asdict(self), "stim_freqs": list(self.stim_freqs)}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class ClassModel:
    """Trained class centers plus everything needed to reapply training
    preprocessing: estimator spec, preprocessing spec, mean solver config.

    The centers are kept as read-only copies, so the factors scoring uses
    (:attr:`factors`) always belong to them.
    """

    centers: tuple
    estimator_spec: EstimatorSpec
    preproc_spec: PreprocSpec
    mean_tolerance: float = manifold.DEFAULT_MEAN_TOLERANCE
    mean_max_iterations: int = manifold.DEFAULT_MEAN_MAX_ITERATIONS

    def __post_init__(self):
        centers = tuple(np.array(c, dtype=float) for c in self.centers)
        for center in centers:
            center.setflags(write=False)
        object.__setattr__(self, "centers", centers)

    @cached_property
    def factors(self):
        """The centers validated and factored once, on first use, as the
        :class:`~spdbci.manifold.FactoredStack` every epoch is scored
        against; a center that is not SPD raises ValidationError."""
        return manifold.FactoredStack(self.centers, "centers")

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

    def summary(self, labels, class_count, z_threshold):
        """The filter's report on trials labelled ``labels`` (1-based):
        ``z_threshold``, the kept and rejected counts, the rejections of
        each class 1..``class_count`` (zeros included) and ``degenerate``,
        in that order."""
        rejected_by_class = dict.fromkeys(range(1, class_count + 1), 0)
        for i in self.rejected:
            rejected_by_class[labels[i]] += 1
        return {"z_threshold": z_threshold, "kept": len(self.kept),
                "rejected": len(self.rejected),
                "rejected_by_class": rejected_by_class,
                "degenerate": self.degenerate}


def preprocess_trial(trial, preproc):
    """Trim cue latency and build the frequency-stacked extended trial."""
    preproc.check_sample_rate(trial.sample_rate)
    trial = trim_latency(trial, preproc.latency_seconds)
    return extend_trial(trial, preproc.stim_freqs, preproc.half_bandwidth,
                        preproc.filter_order, preproc.sos)


def trial_covariance(trial, preproc, estimator_spec):
    """Covariance of a trial after the preprocessing ``preproc``."""
    return estimate(preprocess_trial(trial, preproc), estimator_spec)


def train(trial_set, estimator_spec=None, preproc_spec=None,
          potato_z=None, mean_tolerance=manifold.DEFAULT_MEAN_TOLERANCE,
          mean_max_iterations=manifold.DEFAULT_MEAN_MAX_ITERATIONS):
    """Estimate per-class geometric-mean centers from labelled trials.

    Per trial: trim latency, band-pass stack, estimate covariance. Per
    class: geometric mean of that class's covariances. With ``potato_z``
    set, covariances are filtered once against the pooled geometric mean
    before the class centers are computed.

    Returns ``(model, report)`` where the report records the kappa values
    used (shrinkage) and, when the potato filter ran, per-class rejection
    counts so the caller can veto overzealous filtering.
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
        report["potato"] = potato.summary(labels, k, potato_z)
        covs = [covs[i] for i in potato.kept]
        labels = [labels[i] for i in potato.kept]
        for cls in range(1, k + 1):
            if cls not in labels:
                raise ValidationError(
                    f"outlier filter removed every trial of class {cls}; "
                    f"raise the z threshold")

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
    """Label (1-based) of the class center nearest a precomputed
    covariance in geodesic distance, and the distances to all centers,
    scored in one stacked pass against :attr:`ClassModel.factors`.

    Returns ``(label, distances)`` with all class distances so callers
    can normalize or gate on them (exact ties go to the lowest class), or
    E labels and (E, K) distances for a stack of E covariances.
    """
    if cov.shape[-1] != model.dim:
        raise ValidationError(
            f"covariance dim {cov.shape[-1]} does not match model dim "
            f"{model.dim}")
    dists = manifold.distance(cov, model.factors)
    labels = dists.argmin(axis=-1) + 1
    return (labels if dists.ndim == 2 else int(labels)), dists


def classify(trial, model):
    """Classify a raw trial with the model's recorded preprocessing."""
    cov = trial_covariance(trial, model.preproc_spec, model.estimator_spec)
    return classify_covariance(cov, model)


def potato_filter(covs, z_threshold=DEFAULT_POTATO_Z):
    """Keep covariances whose distance to the pooled mean is unexceptional.

    The reference is the geometric mean of all inputs; matrix i is kept
    when the z-score of its distance to the reference is at most
    ``z_threshold``. A near-zero distance spread means nothing can be an
    outlier: everything is kept and the result is flagged degenerate.
    """
    if not z_threshold > 0:
        raise ValidationError("z_threshold must be positive")
    if not math.isfinite(z_threshold):
        raise ValidationError("z_threshold must be finite")
    if len(covs) < 2:
        raise ValidationError("outlier filtering needs at least 2 matrices")
    reference = manifold.karcher_mean(covs, POOLED_MEAN_TOLERANCE,
                                      POOLED_MEAN_MAX_ITERATIONS)
    dists = manifold.distance(np.array(covs), reference)
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
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" \
        + f64_bytes(model.centers)
    Path(path).write_bytes(blob)
    return Path(path)


def load_model(path):
    """Read a model written by :func:`save_model`, bit-exactly."""
    line, newline, payload = Path(path).read_bytes().partition(b"\n")
    if not newline:
        raise ManifestError(f"{path} has no model header line")
    header = read_header(line, _HEADER_FIELDS, MODEL_FORMAT_VERSION,
                         "model header")
    k = header["class_count"]
    dim = header["dim"]
    n_freqs = len(header["preproc_spec"]["stim_freqs"])
    if k < 1 or dim < 1 or n_freqs < 1 or dim % n_freqs:
        raise ManifestError(
            f"model header declares {k} classes of dim {dim} over "
            f"{n_freqs} stimulus frequencies")
    centers = f64_array(payload, (k, dim, dim), "model payload")
    try:
        estimator_spec = EstimatorSpec.from_dict(header["estimator_spec"])
        preproc_spec = PreprocSpec.from_dict(header["preproc_spec"])
    except ValidationError as exc:
        raise ManifestError(f"invalid model header: {exc}") from exc
    model = ClassModel(
        centers=tuple(centers),
        estimator_spec=estimator_spec,
        preproc_spec=preproc_spec,
        mean_tolerance=header["mean_tolerance"],
        mean_max_iterations=header["mean_max_iterations"],
    )
    try:
        model.factors  # validated and factored here, once per model
    except ValidationError as exc:
        raise ManifestError(f"invalid model payload: {exc}") from exc
    return model
