"""Geometry of symmetric positive definite (SPD) matrices.

The set of C x C SPD matrices forms a Riemannian manifold under the
affine-invariant metric. Its tangent space at any point is the Euclidean
space of symmetric matrices. All operators here work on plain numpy
arrays and are pure functions: they never mutate their inputs, so they
are safe to call concurrently.

Matrix functions (exp, log, sqrt) are computed through the eigenvalue
decomposition: for a symmetric ``A = U diag(a) U^T``,
``f(A) = U diag(f(a)) U^T``.
"""

import math

import numpy as np

from .errors import ConvergenceError, ValidationError

SYMMETRY_RTOL = 1e-10

# Relative floor applied to whitened spectra. Congruence by the inverse
# square root of a badly conditioned matrix can push eigenvalues that are
# mathematically positive a hair below zero in float64; values above the
# rejection threshold are treated as roundoff and clamped, anything more
# negative is a genuinely non-definite input.
EIG_FLOOR_RTOL = 1e-15
EIG_REJECT_RTOL = 1e-10

DEFAULT_MEAN_TOLERANCE = 1e-8
DEFAULT_MEAN_MAX_ITERATIONS = 200


def _as_square(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square 2-D array, got shape {a.shape}")
    return a


def _check_finite_norm(norm, a, name):
    """Reject a matrix with a NaN or infinite entry, given its Frobenius
    norm: such a norm is never finite, so only then are entries scanned."""
    if not math.isfinite(norm) and not np.isfinite(a).all():
        raise ValidationError(f"{name} has non-finite entries")


def symmetrize(a, name="matrix"):
    """Return (A + A^T)/2 after checking A is finite and symmetric within
    tolerance.

    Asymmetry is measured as ||A - A^T||_F relative to ||A||_F. Below the
    tolerance it is considered floating-point noise and silently repaired;
    beyond it the input is rejected rather than repaired.
    """
    a = _as_square(a, name)
    norm = np.linalg.norm(a)
    _check_finite_norm(norm, a, name)
    asym = np.linalg.norm(a - a.T)
    if asym > SYMMETRY_RTOL * max(norm, 1.0):
        raise ValidationError(
            f"{name} is not symmetric: relative asymmetry {asym / max(norm, 1e-300):.3e}"
        )
    return (a + a.T) / 2.0


def _symmetrize_stack(stack, names):
    """:func:`symmetrize` over a (K, C, C) stack in one vectorized pass;
    the error names the first offending matrix."""
    stack_t = stack.transpose(0, 2, 1)
    norm = np.sqrt(np.einsum("kij,kij->k", stack, stack))
    if not np.isfinite(norm).all():
        for i in np.flatnonzero(~np.isfinite(norm)):
            _check_finite_norm(norm[i], stack[i], names[i])
    diff = stack - stack_t
    asym = np.sqrt(np.einsum("kij,kij->k", diff, diff))
    bad = asym > SYMMETRY_RTOL * np.maximum(norm, 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"{names[i]} is not symmetric: relative asymmetry "
            f"{asym[i] / max(norm[i], 1e-300):.3e}")
    return (stack + stack_t) / 2.0


def _eigh_spd(p, name):
    """Eigendecomposition of an SPD matrix, validating positivity."""
    p = symmetrize(p, name)
    w, u = np.linalg.eigh(p)
    if w[0] <= 0.0:
        raise ValidationError(
            f"{name} is not positive definite: smallest eigenvalue {w[0]:.3e}"
        )
    return w, u


def _spectral(w, u, f):
    """``U diag(f(w)) U^T`` for the eigenpairs ``(w, u)`` of a symmetric matrix."""
    return (u * f(w)) @ u.T


def _whitening(p, name):
    """``(P^1/2, P^-1/2)`` from one eigendecomposition of the SPD matrix P."""
    w, u = _eigh_spd(p, name)
    return _spectral(w, u, np.sqrt), (u / np.sqrt(w)) @ u.T


def matrix_exp(s):
    """Matrix exponential of a symmetric matrix; the result is SPD."""
    return _spectral(*np.linalg.eigh(symmetrize(s, "tangent matrix")), np.exp)


def matrix_log(p):
    """Matrix logarithm of an SPD matrix; the result is symmetric."""
    return _spectral(*_eigh_spd(p, "matrix"), np.log)


def matrix_sqrt(p):
    """Unique SPD square root of an SPD matrix."""
    return _spectral(*_eigh_spd(p, "matrix"), np.sqrt)


def matrix_invsqrt(p):
    """Inverse of the SPD square root of an SPD matrix."""
    return _whitening(p, "matrix")[1]


def _check_same_dim(a, b):
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _clamped_positive(w, name):
    """Clamp roundoff-negative eigenvalues of a whitened spectrum."""
    top = w[-1]
    if top <= 0.0 or w[0] < -EIG_REJECT_RTOL * top:
        raise ValidationError(f"{name} is not positive definite")
    return np.maximum(w, top * EIG_FLOOR_RTOL)


def _whitened_log(inv_half, point, name):
    """``Log(B^-1/2 P B^-1/2)`` given ``inv_half = B^-1/2``, with roundoff-
    negative eigenvalues of the whitened point clamped."""
    inner = inv_half @ point @ inv_half
    w, u = np.linalg.eigh((inner + inner.T) / 2.0)
    return _spectral(_clamped_positive(w, name), u, np.log)


def exp_map(base, tangent):
    """Map a tangent (symmetric) matrix at ``base`` onto the manifold.

    Computes ``base^1/2 Exp(base^-1/2 S base^-1/2) base^1/2``.
    """
    base = _as_square(base, "base")
    tangent = _as_square(tangent, "tangent")
    _check_same_dim(base, tangent)
    tangent = symmetrize(tangent, "tangent")
    half, inv_half = _whitening(base, "base")
    inner = inv_half @ tangent @ inv_half
    out = half @ matrix_exp((inner + inner.T) / 2.0) @ half
    return (out + out.T) / 2.0


def log_map(base, point):
    """Map a manifold point into the tangent space at ``base``.

    Computes ``base^1/2 Log(base^-1/2 P base^-1/2) base^1/2``; inverse of
    :func:`exp_map`, so ``log_map(P, P)`` is the zero matrix.
    """
    base = _as_square(base, "base")
    point = symmetrize(point, "point")
    _check_same_dim(base, point)
    half, inv_half = _whitening(base, "base")
    out = half @ _whitened_log(inv_half, point, "point") @ half
    return (out + out.T) / 2.0


def _whitened_spectra(chol, mats, names):
    """Clamped eigenvalues of ``L^-1 M L^-T`` for each M of a (K, C, C)
    stack, given the lower Cholesky factor ``L``.

    Both triangular solves run once over the K matrices laid side by side
    (C x K*C), and one stacked ``eigvalsh`` takes every spectrum.
    """
    # imported here, not at module level, to keep scipy.linalg out of
    # start-up; later calls find the module already loaded
    from scipy.linalg import solve_triangular

    k, c, _ = mats.shape
    tmp = solve_triangular(chol, mats.transpose(1, 0, 2).reshape(c, k * c),
                           lower=True)
    # [(L^-1 M_1)^T ... (L^-1 M_K)^T], side by side
    tmp_t = tmp.reshape(c, k, c).transpose(2, 1, 0).reshape(c, k * c)
    white = solve_triangular(chol, tmp_t, lower=True)
    white = white.reshape(c, k, c).transpose(1, 0, 2)
    w = np.linalg.eigvalsh((white + white.transpose(0, 2, 1)) / 2.0)
    return np.array([_clamped_positive(row, name)
                     for row, name in zip(w, names)])


class FactoredStack:
    """A (K, C, C) stack of SPD references, validated and factored once.

    Holds the inverse lower Cholesky factor ``L_k^-1`` of each reference,
    so that :func:`distance` scores any number of points against the
    same references without factoring anything per point: one batched
    ``L_k^-1 P L_k^-T``, one stacked ``eigvalsh``. ``name`` names the
    stack in errors; a reference that is not finite, symmetric and
    positive definite raises :class:`ValidationError` here.
    """

    def __init__(self, mats, name="p2"):
        from scipy.linalg import solve_triangular

        mats = np.asarray(mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or not mats.size:
            raise ValidationError(
                f"{name} must be a nonempty (K, C, C) stack, got shape "
                f"{mats.shape}")
        names = [f"{name}[{k}]" for k in range(len(mats))]
        eye = np.eye(mats.shape[1])
        inv = []
        for mat, member in zip(_symmetrize_stack(mats, names), names):
            try:
                chol = np.linalg.cholesky(mat)
            except np.linalg.LinAlgError as exc:
                raise ValidationError(
                    f"{member} is not positive definite") from exc
            inv.append(solve_triangular(chol, eye, lower=True))
        self.inv_chol = np.array(inv)
        self.inv_chol_t = np.ascontiguousarray(
            self.inv_chol.transpose(0, 2, 1))

    def distances(self, p1):
        """Distances from the symmetrized point ``p1`` to each reference:
        the whitened spectra are those of ``p2_k^-1 p1``, the inverses of
        the ones :func:`distance` takes, and only squared logs count."""
        white = self.inv_chol @ p1 @ self.inv_chol_t
        w = np.linalg.eigvalsh((white + white.transpose(0, 2, 1)) / 2.0)
        w = np.array([_clamped_positive(row, "p1") for row in w])
        return np.sqrt(np.sum(np.log(w) ** 2, axis=1))


def distance(p1, p2):
    """Affine-invariant geodesic distance from ``p1`` to ``p2``.

    ``p2`` is one SPD matrix, giving a float, or a (K, C, C) stack of
    them, giving an array of the K distances. Each equals
    ``[sum_i log^2(lambda_i)]^(1/2)`` over the eigenvalues ``lambda_i`` of
    ``p1^-1 p2``. Computed by whitening with the Cholesky factor of ``p1``
    (eigenvalues of ``L^-1 p2 L^-T``) instead of forming the product
    explicitly; the spectra coincide. A stack shares that one
    factorization and is scored in one pass.

    ``p2`` may also be a :class:`FactoredStack`, for many ``p1`` against
    fixed references: each reference's own factor whitens ``p1`` and the
    array of K distances agrees with the plain stack's to roundoff.
    """
    p1 = symmetrize(p1, "p1")
    if isinstance(p2, FactoredStack):
        if p2.inv_chol.shape[1:] != p1.shape:
            raise ValidationError(
                f"dimension mismatch: {p1.shape} vs {p2.inv_chol.shape}")
        return p2.distances(p1)
    p2 = np.asarray(p2, dtype=float)
    if p2.ndim not in (2, 3) or p2.shape[-2:] != p1.shape or not p2.size:
        raise ValidationError(f"dimension mismatch: {p1.shape} vs {p2.shape}")
    single = p2.ndim == 2
    bases = p2.reshape(-1, *p1.shape)
    names = ["p2"] if single else [f"p2[{k}]" for k in range(len(bases))]
    bases = _symmetrize_stack(bases, names)
    # The spectrum of p2 whitened by p1 is the inverse of p1 whitened by
    # p2, and the distance only sees squared logs, so either whitening
    # order works; fall back to each base's factorization when p1 is not
    # numerically factorizable.
    try:
        chol = np.linalg.cholesky(p1)
    except np.linalg.LinAlgError:
        w = np.array([_whitened_spectra(_cholesky_or_neither(base, name),
                                        p1[None], ["p1"])[0]
                      for base, name in zip(bases, names)])
    else:
        w = _whitened_spectra(chol, bases, names)
    d = np.sqrt(np.sum(np.log(w) ** 2, axis=1))
    return float(d[0]) if single else d


def _cholesky_or_neither(base, name):
    """Cholesky factor of ``base`` when ``p1`` has none."""
    try:
        return np.linalg.cholesky(base)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            f"neither p1 nor {name} is positive definite") from exc


def karcher_mean(points, tolerance=DEFAULT_MEAN_TOLERANCE,
                 max_iterations=DEFAULT_MEAN_MAX_ITERATIONS):
    """Geometric (Karcher) mean of SPD matrices under the geodesic distance.

    Fixed-point iteration: starting from the arithmetic mean (SPD by
    convexity), repeatedly move along the mean tangent direction,
    ``G <- exp_map(G, mean_n log_map(G, P_n))``, until the Frobenius norm
    of that mean tangent step drops below ``tolerance``.

    Parameters
    ----------
    points : sequence of ndarray
        Nonempty collection of SPD matrices of equal dimension.
    tolerance : float
        Frobenius-norm threshold on the mean tangent step.
    max_iterations : int
        Iteration cap; exceeding it raises :class:`ConvergenceError`
        carrying the last iterate and residual.
    """
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    mats = [symmetrize(p, f"points[{i}]") for i, p in enumerate(points)]
    if not mats:
        raise ValidationError("karcher_mean requires at least one matrix")
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValidationError(
                f"points[{i}] has dim {m.shape[0]}, expected {dim}")
    if len(mats) == 1:
        _eigh_spd(mats[0], "points[0]")
        return mats[0]

    mean = sum(mats) / len(mats)
    residual = np.inf
    scale = 1.0
    previous = None
    for _ in range(max_iterations):
        half, inv_half = _whitening(mean, "mean iterate")
        step = sum(_whitened_log(inv_half, m, f"points[{i}]")
                   for i, m in enumerate(mats)) / len(mats)
        # residual is the Frobenius norm of the mean tangent step expressed
        # at the iterate, i.e. of mean_n log_map(G, P_n).
        residual = float(np.linalg.norm(half @ step @ half))
        if residual < tolerance:
            return mean
        if previous is not None and residual >= previous[3]:
            # The full step overshoots once points are spread far apart;
            # back off to the previous iterate with a smaller step. For
            # tightly clustered inputs this branch never triggers and the
            # iteration is the plain full-step scheme.
            mean, half, step, residual = previous
            scale *= 0.5
        else:
            previous = (mean, half, step, residual)
            scale = min(1.0, scale * 2.0)
        mean = half @ matrix_exp(scale * step) @ half
        mean = (mean + mean.T) / 2.0
    raise ConvergenceError(
        f"geometric mean did not converge in {max_iterations} iterations "
        f"(residual {residual:.3e}, tolerance {tolerance:.3e})",
        last_iterate=mean,
        residual=residual,
    )


def condition_ratio(p):
    """Ratio of the largest to the smallest eigenvalue of an SPD matrix."""
    w, _ = _eigh_spd(p, "matrix")
    return float(w[-1] / w[0])
