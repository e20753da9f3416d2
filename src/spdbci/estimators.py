"""Covariance estimation from a multichannel trial.

Four estimator families: the empirical sample covariance (SCM), a
per-sample normalized variant (NSCM), shrinkage toward a structured
target, and the maximum-likelihood fixed-point estimator. A trial is a
C x N array (channels x samples); every estimator centers it with the
sample mean over time before forming second moments.

The SCM and the shrinkage estimators depend on a trial only through its
moment sums up to the fourth order, so they also accept the :class:`Moments`
of a window's blocks, or of E equal windows stacked (:data:`MOMENT_KINDS`).
"""

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError

# A sample whose inter-channel energy is at most this fraction of the
# trial's mean sample energy has no usable direction for the NSCM.
DEGENERATE_SAMPLE_RTOL = 1e-12
RANK_DEFICIENCY_RTOL = 1e-10
# the largest analytic shrinkage intensity, just below 1
KAPPA_MAX = float(np.nextafter(1.0, 0.0))

SHRINKAGE_TARGETS = ("ledoit", "blankertz", "schafer")
# Estimator kinds that are functions of a window's Moments. NSCM and the
# fixed point weight each sample by its distance from the window mean,
# which no sum over blocks taken before that mean is known can give.
MOMENT_KINDS = ("scm", "shrinkage")


class RankDeficientCovarianceWarning(UserWarning):
    """Raised (as a warning) when an estimate is not numerically full rank."""


def check_finite(values, what):
    """Reject NaN or infinite samples, naming the first one."""
    finite = np.isfinite(values)
    if not finite.all():
        channel, sample = np.argwhere(~finite)[0]
        raise ValidationError(
            f"{what} has a non-finite value {values[channel, sample]} at "
            f"channel {channel}, sample {sample}")


def real_samples(values, what):
    """``values`` as a float array. Complex, string and object data are
    refused by their dtype alone, before a conversion could drop an
    imaginary part or fail on a string."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValidationError(
            f"{what} samples must be real numbers, got dtype {values.dtype}")
    return values.astype(float, copy=False)


@dataclass(frozen=True)
class Trial:
    """A multichannel recording segment.

    ``values`` has shape (channels, samples); ``sample_rate`` is in Hz.
    """

    values: np.ndarray
    sample_rate: float

    def __post_init__(self):
        values = real_samples(self.values, "trial")
        if values.ndim != 2:
            raise ValidationError(f"trial values must be 2-D, got {values.ndim}-D")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValidationError(f"trial values must be nonempty, got {values.shape}")
        check_finite(values, "trial")
        if not 0 < self.sample_rate < np.inf:
            raise ValidationError("sample_rate must be positive and finite")
        object.__setattr__(self, "values", values)

    @property
    def channels(self):
        return self.values.shape[0]

    @property
    def samples(self):
        return self.values.shape[1]

    @property
    def duration(self):
        return self.samples / self.sample_rate


@dataclass(frozen=True)
class Moments:
    """Sums over a window of samples of ``z z^T``, with ``z = [1; x; x*x]``.

    ``sums`` is one (2C+1) x (2C+1) matrix, or a stack of E (``samples``
    is then their total). Its first row holds the sample count and the
    sums of ``x`` and ``x*x``; the rest holds the product sums of ``x`` up
    to the fourth order. The sums of disjoint windows add, so the moments
    of a sliding window are those of the blocks it spans.
    """

    sums: np.ndarray

    @classmethod
    def of(cls, values):
        """The moments of a (channels x samples) array, in one product."""
        c, n = values.shape
        z = np.empty((2 * c + 1, n))
        z[0] = 1.0
        z[1:c + 1] = values
        np.multiply(values, values, out=z[c + 1:])
        return cls(z @ z.T)

    def __add__(self, other):
        return Moments(self.sums + other.sums)

    @property
    def channels(self):
        return (self.sums.shape[-1] - 1) // 2

    @property
    def samples(self):
        return int(self.sums[..., 0, 0].sum())


@dataclass(frozen=True)
class EstimatorSpec:
    """Which covariance estimator to run, with its parameters.

    ``kind`` is one of ``scm``, ``nscm``, ``shrinkage``, ``fixed_point``.
    For shrinkage, ``target`` picks the structured matrix and ``kappa``
    the mixing weight (``None`` selects the analytic intensity).
    ``blankertz_scale`` chooses the denominator of the Blankertz target:
    the dimension of the space of symmetric matrices C(C+1)/2 (default)
    or the channel count.
    """

    kind: str = "shrinkage"
    target: str = "schafer"
    kappa: float | None = None
    blankertz_scale: str = "matrix_space"
    fp_tolerance: float = 1e-6
    fp_max_iterations: int = 200

    def __post_init__(self):
        if self.kind not in ("scm", "nscm", "shrinkage", "fixed_point"):
            raise ValidationError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "shrinkage":
            if self.target not in SHRINKAGE_TARGETS:
                raise ValidationError(f"unknown shrinkage target {self.target!r}")
            if self.kappa is not None and not 0.0 <= self.kappa < 1.0:
                raise ValidationError("kappa must satisfy 0 <= kappa < 1")
        if self.blankertz_scale not in ("matrix_space", "channels"):
            raise ValidationError(
                f"unknown blankertz_scale {self.blankertz_scale!r}")
        if not self.fp_tolerance > 0:
            raise ValidationError("fp_tolerance must be positive")
        if self.fp_max_iterations < 1:
            raise ValidationError("fp_max_iterations must be at least 1")


def spec_from_name(name, kappa=EstimatorSpec.kappa,
                   blankertz_scale=EstimatorSpec.blankertz_scale,
                   fp_max_iterations=EstimatorSpec.fp_max_iterations):
    """Build an EstimatorSpec from a short CLI-style name.

    Plain estimators go by kind (``scm``, ``nscm``, ``fixed-point``);
    shrinkage variants go by target name (``ledoit``, ``blankertz``,
    ``schafer``).
    """
    key = name.strip().lower().replace("-", "_")
    if key in ("scm", "nscm", "fixed_point"):
        return EstimatorSpec(kind=key, fp_max_iterations=fp_max_iterations)
    if key in SHRINKAGE_TARGETS:
        return EstimatorSpec(kind="shrinkage", target=key, kappa=kappa,
                             blankertz_scale=blankertz_scale)
    raise ValidationError(f"unknown estimator name {name!r}")


def _check_samples(n):
    if n < 2:
        raise ValidationError("covariance estimation needs at least 2 samples")


def _centered(trial):
    if isinstance(trial, Moments):
        raise ValidationError(
            "this estimator weights each sample by its distance from the "
            "window mean, so it needs the samples, not their Moments")
    _check_samples(trial.samples)
    x = trial.values
    return x - x.mean(axis=1, keepdims=True)


def _scm(data, fourth=False):
    """The SCM of a :class:`Trial` or :class:`Moments`, with the centered
    sums ``(n, gram, sqsq)`` it is formed from, about the mean ``m``:
    ``gram = sum (x-m)(x-m)^T`` and, when ``fourth`` is true (else None),
    ``sqsq = sum (x-m)^2 (x-m)^2^T``.

    From moments both are congruences of the sums: ``x - m = B z`` with
    ``B = [-m | I | 0]`` and ``(x-m)^2 = A z`` with
    ``A = [m^2 | -2 diag(m) | I]``. Stacked Moments give stacks of all
    but ``n``, the windows' common count.
    """
    sqsq = None
    if not isinstance(data, Moments):
        xc = _centered(data)
        n, gram = data.samples, xc @ xc.T
        if fourth:
            sq = xc * xc
            sqsq = sq @ sq.T
    else:
        c, sums = data.channels, data.sums
        n, counts = int(sums.flat[0]), sums[..., 0, 0]
        if counts.size > 1 and (counts != n).any():
            raise ValidationError("stacked Moments need windows of one length")
        _check_samples(n)
        m = sums[..., 0, 1:c + 1] / n
        x, sq = slice(1, c + 1), slice(c + 1, None)
        # the congruences one block row and column at a time
        bm = sums[..., x, :] - m[..., None] * sums[..., :1, :]
        gram = bm[..., x] - bm[..., :1] * m[..., None, :]
        if fourth:
            mm = m * m
            am = sums[..., sq, :] - 2.0 * m[..., None] * sums[..., x, :] \
                + mm[..., None] * sums[..., :1, :]
            sqsq = am[..., sq] - 2.0 * am[..., x] * m[..., None, :] \
                + am[..., :1] * mm[..., None, :]
    cov = gram / (n - 1)
    return (cov + cov.swapaxes(-1, -2)) / 2.0, (n, gram, sqsq)


def scm(trial):
    """Empirical sample covariance matrix, 1/(N-1) normalization, of a
    :class:`Trial` or the :class:`Moments` of one.

    Always symmetric and positive semidefinite; strictly positive definite
    only when there are more (non-degenerate) samples than channels. A
    numerically rank-deficient result (each of a stack) triggers
    :class:`RankDeficientCovarianceWarning` instead of silent repair.
    """
    cov, (n, _, _) = _scm(trial)
    w = np.linalg.eigvalsh(cov)
    for low, high in w.reshape(-1, w.shape[-1])[:, [0, -1]]:
        if high <= 0.0 or low < RANK_DEFICIENCY_RTOL * high:
            warnings.warn(
                f"sample covariance is rank deficient (eigenvalue range "
                f"[{low:.3e}, {high:.3e}], {trial.channels} channels, "
                f"{n} samples)",
                RankDeficientCovarianceWarning,
                stacklevel=2,
            )
    return cov


def nscm(trial):
    """Sample covariance normalized by per-sample inter-channel energy.

    Each centered sample's outer product is divided by its squared norm
    before averaging, which makes the estimate invariant to a global
    rescaling of the trial. A sample whose energy is at most
    ``DEGENERATE_SAMPLE_RTOL`` times the trial's mean sample energy is
    rejected, so a trial that is all zeros is rejected as well.
    """
    xc = _centered(trial)
    c, n = xc.shape
    energy = np.sum(xc * xc, axis=0)
    mean_energy = energy.mean()
    bad = np.flatnonzero(energy <= DEGENERATE_SAMPLE_RTOL * mean_energy)
    if bad.size:
        raise ValidationError(
            f"degenerate sample at index {bad[0]}: inter-channel energy "
            f"{energy[bad[0]]:.3e}, at most {DEGENERATE_SAMPLE_RTOL:.0e} "
            f"of the trial's mean {mean_energy:.3e}")
    scaled = xc / np.sqrt(energy)
    cov = (c / n) * (scaled @ scaled.T)
    return (cov + cov.T) / 2.0


def shrinkage_target(cov, target,
                     blankertz_scale=EstimatorSpec.blankertz_scale):
    """Structured target matrix for the given SCM.

    ``ledoit``: v*I with v the trace of the SCM. ``blankertz``: v*I with
    v the trace divided by C(C+1)/2 (or by C with
    ``blankertz_scale='channels'``). ``schafer``: the diagonal of the SCM,
    which keeps per-channel scale heterogeneity. Stacks give stacks.
    """
    c = cov.shape[-1]
    if target == "schafer":
        return np.where(_off_diagonal(c), 0.0, cov)
    trace = cov.trace(axis1=-2, axis2=-1)[..., None, None]
    if target == "ledoit":
        return trace * np.eye(c)
    if target == "blankertz":
        denom = c * (c + 1) / 2.0 if blankertz_scale == "matrix_space" else float(c)
        return (trace / denom) * np.eye(c)
    raise ValidationError(f"unknown shrinkage target {target!r}")


@cache
def _off_diagonal(c):
    """Read-only (C, C) mask of the off-diagonal entries, shared per C."""
    mask = ~np.eye(c, dtype=bool)
    mask.setflags(write=False)
    return mask


def _kappa(n, gram, sqsq, cov, tgt, target):
    """Analytic shrinkage intensity toward ``tgt``, clipped to [0, 1), from
    the SCM ``cov`` and the centered sums ``(n, gram, sqsq)`` of :func:`_scm`.

    Ratio of the summed sampling variance of the shrunk SCM entries to
    their squared distance from the target. Entries the target leaves
    untouched (the diagonal, for the ``schafer`` target) contribute to
    neither sum.

    The variance of the SCM entries follows the usual unbiased
    construction: with ``w_nij`` the product of centered channel samples
    and ``wbar`` its time average,
    ``Var(scm_ij) ~= n/(n-1)^3 * sum_n (w_nij - wbar_ij)^2``. Stacks give
    arrays, each window summed alone (numpy orders an axis sum otherwise).
    """
    c = cov.shape[-1]
    wbar = gram / n
    var = (n / (n - 1.0) ** 3) * (sqsq - n * wbar * wbar)
    diff = cov - tgt
    counted = _off_diagonal(c) if target == "schafer" else ...
    kappa = []
    for v, d in zip(var.reshape(-1, c, c), diff.reshape(-1, c, c)):
        num = float(v[counted].sum())
        den = float((d[counted] ** 2).sum())
        # Python min/max: np.clip on a scalar costs microseconds per epoch
        kappa.append(min(max(num / den, 0.0), KAPPA_MAX) if den > 0.0
                     else 0.0)
    return np.array(kappa).reshape(cov.shape[:-2])


def shrinkage_with_kappa(trial, spec):
    """Convex combination of the SCM with a structured target, and the
    weight used: ``(kappa * target + (1 - kappa) * scm, kappa)``, for a
    :class:`Trial` or the :class:`Moments` of one.

    An explicit ``spec.kappa`` is used as-is; with ``kappa=None`` the
    analytic intensity (:func:`_kappa`) is applied. The analytic kappa
    reads the same SCM and target that are shrunk. Stacked Moments give
    the stack of estimates and, for the analytic kappa, the weights' array.
    """
    if spec.kind != "shrinkage":
        raise ValidationError("spec.kind must be 'shrinkage'")
    cov, sums = _scm(trial, fourth=spec.kappa is None)
    tgt = shrinkage_target(cov, spec.target, spec.blankertz_scale)
    kappa = spec.kappa
    if kappa is None:
        kappa = _kappa(*sums, cov, tgt, spec.target)
    weight = np.asarray(kappa)[..., None, None]
    shrunk = weight * tgt + (1.0 - weight) * cov
    kappa = float(kappa) if cov.ndim == 2 else kappa
    return (shrunk + shrunk.swapaxes(-1, -2)) / 2.0, kappa


def _fixed_point_step(xc, sigma):
    """One iteration of the maximum-likelihood fixed-point map."""
    c, n = xc.shape
    try:
        quad = np.sum(xc * np.linalg.solve(sigma, xc), axis=0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("fixed-point iterate became singular") from exc
    if np.any(quad <= 0.0):
        raise NumericalError("fixed-point quadratic form lost positivity")
    nxt = (c / n) * ((xc / quad) @ xc.T)
    return (nxt + nxt.T) / 2.0


def fixed_point(trial, spec):
    """Maximum-likelihood covariance via fixed-point iteration.

    Each iteration reweights every centered sample's outer product by the
    inverse of its current Mahalanobis energy. Starts from the NSCM and
    stops when the relative Frobenius change falls below
    ``spec.fp_tolerance``, within ``spec.fp_max_iterations`` iterations.
    Requires strictly more samples than channels.
    """
    if trial.samples <= trial.channels:
        raise ValidationError(
            f"fixed-point estimation needs more samples than channels "
            f"({trial.samples} samples, {trial.channels} channels)")
    xc = _centered(trial)
    sigma = nscm(trial)
    change = np.inf
    for _ in range(spec.fp_max_iterations):
        nxt = _fixed_point_step(xc, sigma)
        change = np.linalg.norm(nxt - sigma) / np.linalg.norm(sigma)
        sigma = nxt
        if change < spec.fp_tolerance:
            return sigma
    raise ConvergenceError(
        f"fixed-point estimator did not converge in "
        f"{spec.fp_max_iterations} iterations (relative change {change:.3e})",
        last_iterate=sigma,
        residual=float(change),
    )


def estimate(trial, spec):
    """Dispatch a trial to the estimator described by ``spec``.

    ``trial`` is a :class:`Trial`, or the :class:`Moments` of one, or of
    a stack of windows, when ``spec.kind`` is in :data:`MOMENT_KINDS`.
    """
    if spec.kind == "scm":
        return scm(trial)
    if spec.kind == "nscm":
        return nscm(trial)
    if spec.kind == "shrinkage":
        return shrinkage_with_kappa(trial, spec)[0]
    if spec.kind == "fixed_point":
        return fixed_point(trial, spec)
    raise ValidationError(f"unknown estimator kind {spec.kind!r}")
