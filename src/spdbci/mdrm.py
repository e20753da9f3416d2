"""Minimum-distance-to-mean classification on the SPD manifold.

Training estimates one geometric-mean covariance center per class from
labelled trials; classification assigns a trial to the class whose
center is nearest in geodesic distance. A distance-based outlier filter
("potato") can drop wildly atypical training covariances before the
centers are computed.
"""

import json
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
    design_bands,
    extend_trial,
    latency_samples,
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
        if self.latency_seconds < 0:
            raise ValidationError("latency must be nonnegative")
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

    def check_trials(self, trials, latency_override=None):
        """Refuse, before any work, the trials :func:`preprocess_trial`
        would refuse: one at another sample rate, or a latency that is
        negative or leaves no data in the shortest."""
        for trial in trials:
            self.check_sample_rate(trial.sample_rate)
        latency = self.latency_seconds if latency_override is None \
            else latency_override
        shortest = min(trials, key=lambda t: t.samples)
        latency_samples(latency, shortest.samples, shortest.sample_rate)

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


def preprocess_trial(trial, preproc, latency_override=None):
    """Trim cue latency and build the frequency-stacked extended trial."""
    preproc.check_sample_rate(trial.sample_rate)
    latency = preproc.latency_seconds if latency_override is None \
        else latency_override
    trial = trim_latency(trial, latency)
    return extend_trial(trial, preproc.stim_freqs, preproc.half_bandwidth,
                        preproc.filter_order, preproc.sos)


def trial_covariance(trial, preproc, estimator_spec, latency_override=None):
    """Covariance of a trial after the model's preprocessing."""
    return estimate(preprocess_trial(trial, preproc, latency_override),
                    estimator_spec)


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
    check_train_settings(potato_z, mean_tolerance, mean_max_iterations)
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
    can normalize or gate on them (exact ties go to the lowest class), or
    E labels and (E, K) distances for a stack of E covariances.
    """
    if cov.shape[-1] != model.dim:
        raise ValidationError(
            f"covariance dim {cov.shape[-1]} does not match model dim "
            f"{model.dim}")
    return nearest_center(cov, model.factors)


def nearest_center(cov, centers):
    """Label (1-based) of the center nearest ``cov`` in geodesic distance,
    and the distances to all centers, scored in one stacked pass. Exact
    ties go to the lowest label.

    ``centers`` is a :class:`~spdbci.manifold.FactoredStack` (a model's
    :attr:`ClassModel.factors`) or a sequence of SPD matrices, which is
    factored first. A stack of E gives E labels and (E, K) distances.
    """
    if not isinstance(centers, manifold.FactoredStack):
        centers = manifold.FactoredStack(centers, "centers")
    dists = manifold.distance(cov, centers)
    labels = dists.argmin(axis=-1) + 1
    return (labels if dists.ndim == 2 else int(labels)), dists


def classify(trial, model, latency_override=None):
    """Classify a raw trial with the model's recorded preprocessing."""
    cov = trial_covariance(trial, model.preproc_spec, model.estimator_spec,
                           latency_override)
    return classify_covariance(cov, model)


def check_potato_z(z_threshold):
    """Refuse an outlier threshold :func:`potato_filter` cannot use;
    callers that take it from a user check it here before any work."""
    if z_threshold <= 0:
        raise ValidationError("z_threshold must be positive")


def check_train_settings(
        potato_z=None, mean_tolerance=manifold.DEFAULT_MEAN_TOLERANCE,
        mean_max_iterations=manifold.DEFAULT_MEAN_MAX_ITERATIONS):
    """Refuse a :func:`train` setting before any work: a potato threshold
    or a mean-solver setting that the filter or the solver would refuse."""
    if potato_z is not None:
        check_potato_z(potato_z)
    manifold.check_mean_solver(mean_tolerance, mean_max_iterations)


def potato_filter(covs, z_threshold=DEFAULT_POTATO_Z):
    """Keep covariances whose distance to the pooled mean is unexceptional.

    The reference is the geometric mean of all inputs; matrix i is kept
    when the z-score of its distance to the reference is at most
    ``z_threshold``. A near-zero distance spread means nothing can be an
    outlier: everything is kept and the result is flagged degenerate.
    """
    check_potato_z(z_threshold)
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
