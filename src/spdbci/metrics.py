"""Evaluation metrics, the bootstrap benchmark, and tangent-space embedding.

The benchmark resamples a labelled trial set with replacement (stratified
by class), splits each replication 50/50 into train and test, crops to a
grid of trial lengths, and scores each covariance estimator with the
minimum-distance classifier. Reported per estimator and length: accuracy,
information transfer rate, matrix conditioning, and the discrimination
improvement over the plain sample covariance baseline.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import manifold
from .errors import ConvergenceError, ValidationError
from .estimators import EstimatorSpec, Trial, estimate, shrinkage_with_kappa
from .formats import write_csv, write_json
from .mdrm import (
    POOLED_MEAN_MAX_ITERATIONS,
    POOLED_MEAN_TOLERANCE,
    PreprocSpec,
    preprocess_trial,
)
from .preprocessing import trim_latency


def accuracy(predicted, truth):
    """Percentage of matching entries between two equal-length label lists."""
    predicted = list(predicted)
    truth = list(truth)
    if not predicted or len(predicted) != len(truth):
        raise ValidationError(
            f"predicted and truth must be equal nonempty lengths, got "
            f"{len(predicted)} and {len(truth)}")
    hits = sum(p == t for p, t in zip(predicted, truth))
    return 100.0 * hits / len(truth)


def itr(accuracy_fraction, classes, selections_per_minute):
    """Information transfer rate in bits/min (Wolpaw bits per selection).

    ``B = log2 K + a log2 a + (1-a) log2((1-a)/(K-1))``, with the
    ``a in {0, 1}`` terms taken in the limit, multiplied by the selection
    rate and floored at zero.
    """
    a = float(accuracy_fraction)
    if not 0.0 <= a <= 1.0:
        raise ValidationError("accuracy fraction must lie in [0, 1]")
    if classes < 2:
        raise ValidationError("need at least 2 classes")
    if a >= 1.0:
        bits = math.log2(classes)
    elif a <= 0.0:
        bits = math.log2(classes) - math.log2(classes - 1)
    else:
        bits = (math.log2(classes) + a * math.log2(a)
                + (1.0 - a) * math.log2((1.0 - a) / (classes - 1)))
    return max(bits, 0.0) * selections_per_minute


def scores_from_distances(dists):
    """Map a class-distance vector, or a stack of them along the last axis,
    to probability-like scores.

    Normalized distances are inverted so the nearest class scores the
    highest; each vector's scores are nonnegative and sum to one.
    """
    dists = np.asarray(dists, dtype=float)
    k = dists.shape[-1] if dists.ndim else 1
    if k < 2:
        raise ValidationError("need at least 2 classes")
    delta = dists / dists.sum(axis=-1, keepdims=True)
    return (1.0 - delta) / (k - 1)


def idi(new_scores, baseline_scores, truth):
    """Integrated discrimination improvement of one scorer over a baseline.

    ``new_scores`` and ``baseline_scores`` are (trials x classes) arrays
    of probability-like scores; the event entries are the correct-class
    scores, the nonevent entries all the rest. The improvement is the gain
    in mean event/nonevent separation.
    """
    new_scores = np.asarray(new_scores, dtype=float)
    baseline_scores = np.asarray(baseline_scores, dtype=float)
    truth = np.asarray(truth, dtype=int)
    if new_scores.shape != baseline_scores.shape or new_scores.ndim != 2:
        raise ValidationError("score arrays must share a (trials, classes) shape")
    t, k = new_scores.shape
    if t < 1 or k < 2 or truth.shape != (t,):
        raise ValidationError("need >= 1 trial, >= 2 classes, matching truth")
    event_mask = np.zeros((t, k), dtype=bool)
    event_mask[np.arange(t), truth - 1] = True

    def separation(scores):
        return scores[event_mask].mean() - scores[~event_mask].mean()

    return float(separation(new_scores) - separation(baseline_scores))


# ---------------------------------------------------------------------------
# Bootstrap benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig:
    """Replication count, trial-length grid, and estimators to compare.

    ``mean_tolerance`` is looser than the library-wide default because
    short-crop covariances spread widely on the manifold and make the
    mean solver slow; center precision of 1e-3 is far below the class
    distance scale, so classification results are unaffected.
    """

    replications: int = 1000
    trial_lengths_seconds: tuple = tuple(0.5 * i for i in range(1, 11))
    estimators: tuple = (EstimatorSpec(kind="scm"), EstimatorSpec())
    seed: int = 0
    mean_tolerance: float = 1e-3
    mean_max_iterations: int = 500

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("replications must be positive")
        if not self.trial_lengths_seconds:
            raise ValidationError("at least one trial length is required")
        if not all(length > 0 for length in self.trial_lengths_seconds):
            raise ValidationError("trial lengths must be positive")


def estimator_label(spec):
    """Short display name of an estimator spec for report rows."""
    if spec.kind == "shrinkage":
        return spec.target
    return spec.kind


@dataclass(frozen=True)
class BenchRow:
    estimator: str
    length_seconds: float
    acc_mean: float
    acc_std: float
    itr_mean: float
    itr_std: float
    cond_mean: float
    idi_mean: float
    kappa_mean: float | None
    unconverged_means: int = 0
    unconverged_estimates: int = 0


# Report column names, one per BenchRow field in field order.
BENCH_COLUMNS = ("estimator", "length_s", "acc_mean", "acc_std", "itr_mean",
                 "itr_std", "cond_mean", "idi_mean", "kappa_mean",
                 "unconverged_means", "unconverged_estimates")


@dataclass
class BenchReport:
    rows: list
    replications: int
    seed: int

    def to_csv(self, path):
        write_csv(path, BENCH_COLUMNS, map(astuple, self.rows))

    def to_json(self, path):
        write_json(path, {
            "replications": self.replications,
            "seed": self.seed,
            "rows": [dict(zip(BENCH_COLUMNS, astuple(r))) for r in self.rows],
        })


def _crop(trial, length_seconds):
    count = int(np.floor(length_seconds * trial.sample_rate))
    if count > trial.samples:
        raise ValidationError(
            f"trial of {trial.samples} samples is shorter than the "
            f"requested {length_seconds} s crop")
    return Trial(trial.values[:, :count], trial.sample_rate)


class _Estimates:
    """One spec's covariances, mean kappa (shrinkage only) and stalled
    count, estimated one trial at a time by :meth:`add`.

    A fixed-point estimate that runs out of iterations (some short crops
    need more than the default cap) is scored at its last iterate and
    counted, rather than aborting the whole comparison.
    """

    def __init__(self, spec):
        self.spec = spec
        self.covs, self.kappas, self.stalled = [], [], 0

    def add(self, trial):
        if self.spec.kind == "shrinkage":
            cov, kappa = shrinkage_with_kappa(trial, self.spec)
            self.kappas.append(kappa)
        else:
            try:
                cov = estimate(trial, self.spec)
            except ConvergenceError as exc:
                cov = exc.last_iterate
                self.stalled += 1
        self.covs.append(cov)

    def result(self):
        """``(covariances, mean kappa or None, stalled count)``."""
        kappa = float(np.mean(self.kappas)) \
            if self.spec.kind == "shrinkage" else None
        return self.covs, kappa, self.stalled


def benchmark_pools(trial_set, config, preproc):
    """Trial indices of each class, after checking that ``trial_set`` can
    run ``config`` under ``preproc``: every crop fits the shortest trial,
    the latency leaves data in the shortest crop, and every class has the
    two trials a train/test split needs. Otherwise raises
    :class:`ValidationError`, before any work."""
    min_duration = min(t.duration for t in trial_set.trials)
    for length in config.trial_lengths_seconds:
        if length > min_duration + 1e-9:
            raise ValidationError(
                f"trial length {length} s exceeds the shortest trial "
                f"({min_duration} s)")
    shortest = min(config.trial_lengths_seconds)
    for trial in trial_set.trials:  # as preprocess_trial would refuse
        preproc.check_sample_rate(trial.sample_rate)
        trim_latency(_crop(trial, shortest), preproc.latency_seconds)
    by_class = {}
    for i, lab in enumerate(trial_set.labels):
        by_class.setdefault(lab, []).append(i)
    for cls in range(1, trial_set.class_count + 1):
        if len(by_class.get(cls, [])) < 2:
            raise ValidationError(
                f"class {cls} needs at least 2 trials for a train/test split")
    return by_class


def run_benchmark(trial_set, config=None, preproc=None, threads=1):
    """Bootstrap comparison of covariance estimators under MDRM.

    Resample indices for every replication are drawn up front from the
    seed, so results do not depend on execution order. The plain SCM is
    always evaluated as the baseline for the discrimination-improvement
    column. Each spec is scored on its own covariances; resampling reuses
    the same trials across replications, so each (length, spec, trial)
    covariance is computed exactly once. Trials are cropped, filtered and
    estimated under every spec one at a time, so one filtered trial is
    held at once, not a whole length's. A class mean or a fixed-point
    estimate that stalls is scored at its last iterate and counted in the
    ``unconverged_means`` or ``unconverged_estimates`` column.

    Every replication draws the same number of training trials per class,
    so each class's means over all replications are one lockstep
    :func:`~spdbci.manifold.karcher_mean` call on an (R, N, C, C) stack,
    and each split's distinct test covariances are scored against its
    centers in one :func:`~spdbci.manifold.distance` call. Both give the
    bits of one call per mean and per trial.

    ``threads`` is accepted and ignored: work is single-threaded apart
    from BLAS. It stays only because the benchmark in ``perfbench/``
    passes ``threads=1``.
    """
    config = config or BenchConfig()
    if preproc is None:
        preproc = PreprocSpec.for_trial_set(trial_set)
    by_class = benchmark_pools(trial_set, config, preproc)
    k = trial_set.class_count
    labels = trial_set.labels

    rng = np.random.default_rng(config.seed)
    # per class, the (R, N_c) training draws of every replication
    train_draws = [[] for _ in range(k)]
    test_draws = []
    for _ in range(config.replications):
        test_idx = []
        for cls in range(1, k + 1):
            pool = by_class[cls]
            draw = rng.choice(pool, size=len(pool), replace=True)
            half = len(pool) - len(pool) // 2
            train_draws[cls - 1].append(draw[:half])
            test_idx.extend(int(x) for x in draw[half:])
        test_draws.append(test_idx)
    train_draws = [np.array(draws) for draws in train_draws]

    def evaluate_splits(covs):
        """``(predictions, scores, truth, stalled means)`` of each split."""
        covs = np.array(covs)
        centers, stalled = [], np.zeros(config.replications, dtype=int)
        for draws in train_draws:
            try:
                centers.append(manifold.karcher_mean(
                    covs[draws], config.mean_tolerance,
                    config.mean_max_iterations))
            except ConvergenceError as exc:
                # Near-singular estimates (short crops of the unregularized
                # estimators) can stall the mean solver; score the last
                # iterates and surface the count in the report rather than
                # aborting the whole comparison.
                centers.append(exc.last_iterate)
                stalled += ~(exc.residual < config.mean_tolerance)
        runs = []
        for r, test_idx in enumerate(test_draws):
            distinct, row = np.unique(test_idx, return_inverse=True)
            dists = manifold.distance(covs[distinct],
                                      np.array([c[r] for c in centers]))
            predictions = (np.argmin(dists, axis=1) + 1)[row].tolist()
            scores = scores_from_distances(dists)[row]
            truth = [labels[i] for i in test_idx]
            runs.append((predictions, scores, truth, int(stalled[r])))
        return runs

    rows = []
    for length in config.trial_lengths_seconds:
        baseline = _Estimates(EstimatorSpec(kind="scm"))
        # an scm spec is scored on the baseline's estimates and splits
        estimates = [baseline if estimator_label(spec) == "scm"
                     else _Estimates(spec) for spec in config.estimators]
        distinct = [baseline] + [e for e in estimates if e is not baseline]
        # each filtered trial is estimated under every spec, then dropped
        # before the next one is filtered
        for t in trial_set.trials:
            trial = preprocess_trial(_crop(t, length), preproc)
            for spec_estimates in distinct:
                spec_estimates.add(trial)
        scm_runs = evaluate_splits(baseline.covs)
        for spec, spec_estimates in zip(config.estimators, estimates):
            covs, kappa, stalled_estimates = spec_estimates.result()
            runs = scm_runs if spec_estimates is baseline \
                else evaluate_splits(covs)
            accs, itrs, idis = [], [], []
            stalled_total = 0
            for (preds, scores, truth, stalled), (_, scm_scores, _, _) in \
                    zip(runs, scm_runs):
                acc = accuracy(preds, truth)
                accs.append(acc)
                itrs.append(itr(acc / 100.0, k, 60.0 / length))
                idis.append(idi(scores, scm_scores, truth))
                stalled_total += stalled
            cond = float(np.mean([manifold.condition_ratio(c)
                                  for c in covs]))
            rows.append(BenchRow(
                estimator=estimator_label(spec),
                length_seconds=float(length),
                acc_mean=float(np.mean(accs)),
                acc_std=float(np.std(accs)),
                itr_mean=float(np.mean(itrs)),
                itr_std=float(np.std(itrs)),
                cond_mean=cond,
                idi_mean=float(np.mean(idis)),
                kappa_mean=kappa,
                unconverged_means=stalled_total,
                unconverged_estimates=stalled_estimates,
            ))
    return BenchReport(rows=rows, replications=config.replications,
                       seed=config.seed)


# ---------------------------------------------------------------------------
# Tangent-space embedding
# ---------------------------------------------------------------------------

def _upper_vec(sym):
    """Upper-triangle vectorization preserving the Frobenius norm."""
    iu = np.triu_indices(sym.shape[0])
    weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return sym[iu] * weights


@dataclass
class Embedding:
    """2-D principal-component coordinates of tangent-mapped covariances."""

    coords: np.ndarray
    labels: list
    base: np.ndarray
    mean_vec: np.ndarray
    components: np.ndarray

    def project(self, covs):
        """Coordinates of additional SPD matrices in the same plane."""
        vecs = np.array([_upper_vec(manifold.log_map(self.base, c))
                         for c in covs])
        return (vecs - self.mean_vec) @ self.components.T


def tangent_embed(covs, labels=None):
    """Project covariances to 2-D through the tangent space at their mean.

    Each matrix is mapped into the tangent space at the pooled geometric
    mean, vectorized isometrically, centered, and projected onto the top
    two principal components.
    """
    covs = list(covs)
    if len(covs) < 3:
        raise ValidationError("embedding needs at least 3 matrices")
    if labels is None:
        labels = [0] * len(covs)
    labels = list(labels)
    if len(labels) != len(covs):
        raise ValidationError("labels must match the number of matrices")
    base = manifold.karcher_mean(covs, POOLED_MEAN_TOLERANCE,
                                 POOLED_MEAN_MAX_ITERATIONS)
    vecs = np.array([_upper_vec(manifold.log_map(base, c)) for c in covs])
    mean_vec = vecs.mean(axis=0)
    centered = vecs - mean_vec
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2]
    if components.shape[0] < 2:
        components = np.vstack([components,
                                np.zeros((2 - components.shape[0],
                                          components.shape[1]))])
    # Deterministic sign: the strongest loading of each axis is positive.
    for row in range(2):
        pivot = np.argmax(np.abs(components[row]))
        if components[row, pivot] < 0:
            components[row] = -components[row]
    coords = centered @ components.T
    return Embedding(coords=coords, labels=labels, base=base,
                     mean_vec=mean_vec, components=components)


def write_embedding_csv(embedding, path, centers=None):
    """CSV of 2-D points with labels, plus optional class-center rows."""
    rows = [("trial", label, x, y)
            for (x, y), label in zip(embedding.coords, embedding.labels)]
    if centers is not None:
        rows += [("center", cls, x, y) for cls, (x, y)
                 in enumerate(embedding.project(centers), start=1)]
    write_csv(path, ("kind", "label", "x", "y"), rows)
