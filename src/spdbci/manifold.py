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

from .errors import ConvergenceError, NumericalError, ValidationError

SYMMETRY_RTOL = 1e-10

# Relative floor applied to whitened spectra. Congruence by the inverse
# square root of a badly conditioned matrix can push eigenvalues that are
# mathematically positive a hair below zero in float64; values above the
# rejection threshold are treated as roundoff and clamped, anything more
# negative is a genuinely non-definite input.
EIG_FLOOR_RTOL = 1e-15
EIG_REJECT_RTOL = 1e-10
# the largest eigenvalue whose exp is finite in float64
_EXP_MAX = math.log(np.finfo(float).max)

DEFAULT_MEAN_TOLERANCE = 1e-8
DEFAULT_MEAN_MAX_ITERATIONS = 200
# karcher_mean solves at most this many problems in lockstep at a time, so
# its temporaries stay bounded however many it is given
_MEAN_CHUNK = 128


def _as_square(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square 2-D array, got shape {a.shape}")
    return a


def symmetrize(a, name="matrix"):
    """Return (A + A^T)/2 after checking A is finite and symmetric within
    tolerance.

    Asymmetry is measured as ||A - A^T||_F relative to ||A||_F, whatever
    the scale of A. Below the tolerance it is considered floating-point
    noise and silently repaired; beyond it the input is rejected rather
    than repaired.
    """
    return _symmetrize_stack(_as_square(a, name)[None], [name])[0]


def _symmetrize_stack(stack, names):
    """:func:`symmetrize` over a (K, C, C) stack in one vectorized pass;
    the error names the first offending matrix."""
    stack_t = stack.transpose(0, 2, 1)
    norm = np.sqrt(np.einsum("kij,kij->k", stack, stack))
    # a NaN or inf entry leaves the norm non-finite; only then scan entries
    if not np.isfinite(norm).all():
        for i in np.flatnonzero(~np.isfinite(norm)):
            if not np.isfinite(stack[i]).all():
                raise ValidationError(f"{names[i]} has non-finite entries")
    diff = stack - stack_t
    asym = np.sqrt(np.einsum("kij,kij->k", diff, diff))
    bad = asym > SYMMETRY_RTOL * norm
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"{names[i]} is not symmetric: relative asymmetry "
            f"{asym[i] / max(norm[i], 1e-300):.3e}")
    return (stack + stack_t) / 2.0


def _eigh_spd(p, name):
    """Eigendecomposition of an SPD matrix, or of each matrix of a (K, C, C)
    stack, validating positivity."""
    p = symmetrize(p, name) if p.ndim == 2 else \
        _symmetrize_stack(p, [name] * len(p))
    w, u = np.linalg.eigh(p)
    if (w[..., 0] <= 0.0).any():
        raise ValidationError(
            f"{name} is not positive definite: smallest eigenvalue "
            f"{np.min(w[..., 0]):.3e}")
    return w, u


def _spectral(w, u, f):
    """``U diag(f(w)) U^T`` for the eigenpairs ``(w, u)`` of a symmetric
    matrix, or for each of a stack of them."""
    return (u * f(w)[..., None, :]) @ np.swapaxes(u, -1, -2)


def _exp(w):
    """``exp`` of tangent spectra; an eigenvalue it overflows raises."""
    if (w > _EXP_MAX).any():
        raise NumericalError(f"tangent eigenvalue {np.max(w):.6g} overflows exp")
    return np.exp(w)


def _whitening(p, name):
    """``(P^1/2, P^-1/2)`` from one eigendecomposition of the SPD matrix P,
    or of each matrix of a (K, C, C) stack."""
    w, u = _eigh_spd(p, name)
    return (_spectral(w, u, np.sqrt),
            (u / np.sqrt(w)[..., None, :]) @ np.swapaxes(u, -1, -2))


def matrix_exp(s):
    """Matrix exponential of a symmetric matrix; the result is SPD. An
    eigenvalue above ~709.78 overflows exp and raises NumericalError."""
    return _spectral(*np.linalg.eigh(symmetrize(s, "tangent matrix")), _exp)


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


def _clamped_rows(w, names):
    """Clamp roundoff-negative eigenvalues of a stack of whitened spectra
    (last axis), split evenly among ``names``; errors name the first."""
    top = w[..., -1:]
    bad = (top[..., 0] <= 0.0) | (w[..., 0] < -EIG_REJECT_RTOL * top[..., 0])
    if bad.any():
        first = np.argmax(bad.reshape(len(names), -1).any(axis=1))
        raise ValidationError(f"{names[int(first)]} is not positive definite")
    return np.maximum(w, top * EIG_FLOOR_RTOL)


def _whitened_logs(inv_half, points, names):
    """``Log(B^-1/2 P B^-1/2)`` for each P of a (K, C, C) stack, given
    ``inv_half = B^-1/2`` (or a stack of K of them), with roundoff-negative
    eigenvalues of each whitened point clamped."""
    inner = inv_half @ points @ inv_half
    w, u = np.linalg.eigh((inner + inner.transpose(0, 2, 1)) / 2.0)
    return _spectral(_clamped_rows(w, names), u, np.log)


def _exp_at(half, tangent):
    """``B^1/2 Exp(S) B^1/2``, symmetrized, given ``half = B^1/2`` and the
    tangent S whitened at B (symmetrized here), or stacks of both."""
    tangent = (tangent + np.swapaxes(tangent, -1, -2)) / 2.0
    out = half @ _spectral(*np.linalg.eigh(tangent), _exp) @ half
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def exp_map(base, tangent):
    """Map a tangent (symmetric) matrix at ``base`` onto the manifold.

    Computes ``base^1/2 Exp(base^-1/2 S base^-1/2) base^1/2``; a whitened
    tangent whose exp overflows raises :class:`NumericalError`.
    """
    base = _as_square(base, "base")
    tangent = _as_square(tangent, "tangent")
    _check_same_dim(base, tangent)
    tangent = symmetrize(tangent, "tangent")
    half, inv_half = _whitening(base, "base")
    return _exp_at(half, inv_half @ tangent @ inv_half)


def log_map(base, point):
    """Map a manifold point into the tangent space at ``base``.

    Computes ``base^1/2 Log(base^-1/2 P base^-1/2) base^1/2``; inverse of
    :func:`exp_map`, so ``log_map(P, P)`` is the zero matrix.
    """
    base = _as_square(base, "base")
    point = symmetrize(point, "point")
    _check_same_dim(base, point)
    half, inv_half = _whitening(base, "base")
    out = half @ _whitened_logs(inv_half, point[None], ["point"])[0] @ half
    return (out + out.T) / 2.0


def _whitened(chol, mats):
    """``L^-1 M L^-T``, symmetrized, for each M of a (K, C, C) stack,
    given the lower Cholesky factor ``L``.

    Both triangular solves run once over the K matrices laid side by side
    (C x K*C).
    """
    # imported here, not at module level, to keep scipy.linalg out of
    # start-up; later calls find the module already loaded
    from scipy.linalg.lapack import dtrtrs

    def solve(rhs):
        # the LAPACK call scipy's solve_triangular(chol, rhs, lower=True)
        # makes for a C-ordered factor, without its per-call validation
        # (every input here is finite and square)
        x, info = dtrtrs(chol.T, rhs, lower=0, trans=1)
        if info:
            raise np.linalg.LinAlgError("singular triangular factor")
        return x

    k, c, _ = mats.shape
    tmp = solve(mats.transpose(1, 0, 2).reshape(c, k * c))
    # [(L^-1 M_1)^T ... (L^-1 M_K)^T], side by side
    tmp_t = tmp.reshape(c, k, c).transpose(2, 1, 0).reshape(c, k * c)
    white = solve(tmp_t).reshape(c, k, c).transpose(1, 0, 2)
    return (white + white.transpose(0, 2, 1)) / 2.0


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


def distance(p1, p2):
    """Affine-invariant geodesic distance from ``p1`` to ``p2``.

    ``p2`` is one SPD matrix, giving a float, or a (K, C, C) stack of
    them, giving an array of the K distances. Each equals
    ``[sum_i log^2(lambda_i)]^(1/2)`` over the eigenvalues ``lambda_i`` of
    ``p1^-1 p2``. Computed by whitening with the Cholesky factor of ``p1``
    (eigenvalues of ``L^-1 p2 L^-T``) instead of forming the product
    explicitly; the spectra coincide. A stack shares that one
    factorization and is scored in one pass.

    ``p1`` may also be a (T, C, C) stack, giving T distances against one
    ``p2`` or a (T, K) array against a stack. Each ``p1[t]`` is whitened
    exactly as it would be alone, and its row equals the single call bit
    for bit; every spectrum goes through one stacked ``eigvalsh``. A
    member that is not finite and symmetric raises
    :class:`ValidationError` naming ``p1[t]``.

    ``p2`` may also be a :class:`FactoredStack`, for many ``p1`` against
    fixed references: each reference's own factor whitens ``p1`` and the
    array of K distances agrees with the plain stack's to roundoff. All
    T*K spectra of a (T, C, C) ``p1`` go through one ``eigvalsh`` too.
    """
    p1 = np.asarray(p1, dtype=float)
    if p1.ndim == 3 and p1.shape[1] == p1.shape[2] and len(p1):
        p1_names = [f"p1[{t}]" for t in range(len(p1))]
        points = _symmetrize_stack(p1, p1_names)
    else:
        p1_names = ["p1"]
        points = symmetrize(p1, "p1")[None]
    if isinstance(p2, FactoredStack):
        if p2.inv_chol.shape[1:] != points.shape[1:]:
            raise ValidationError(
                f"dimension mismatch: {p1.shape} vs {p2.inv_chol.shape}")
        # the spectra of p2_k^-1 p1, inverse to those below
        white = p2.inv_chol @ points[:, None] @ p2.inv_chol_t
        w = np.linalg.eigvalsh((white + white.swapaxes(-1, -2)) / 2.0)
        d = np.sqrt((np.log(_clamped_rows(w, p1_names)) ** 2).sum(axis=-1))
        return d if p1.ndim == 3 else d[0]
    dim = points.shape[1:]
    p2 = np.asarray(p2, dtype=float)
    if p2.ndim not in (2, 3) or p2.shape[-2:] != dim or not p2.size:
        raise ValidationError(f"dimension mismatch: {p1.shape} vs {p2.shape}")
    single = p2.ndim == 2
    bases = p2.reshape(-1, *dim)
    names = ["p2"] if single else [f"p2[{k}]" for k in range(len(bases))]
    bases = _symmetrize_stack(bases, names)
    white, row_names = [], []
    for point, point_name in zip(points, p1_names):
        # The spectrum of p2 whitened by p1 is the inverse of p1 whitened
        # by p2, and the distance only sees squared logs, so either
        # whitening order works; fall back to each base's factorization
        # when p1 is not numerically factorizable.
        try:
            chol = np.linalg.cholesky(point)
        except np.linalg.LinAlgError:
            white += [_whitened(_cholesky_or_neither(base, point_name, name),
                                point[None])
                      for base, name in zip(bases, names)]
            row_names += [point_name] * len(bases)
        else:
            white.append(_whitened(chol, bases))
            row_names += names
    w = _clamped_rows(np.linalg.eigvalsh(np.concatenate(white)), row_names)
    d = np.sqrt(np.sum(np.log(w) ** 2, axis=1)).reshape(len(points), -1)
    if p1.ndim == 3:
        return d[:, 0] if single else d
    return float(d[0, 0]) if single else d[0]


def _cholesky_or_neither(base, point_name, name):
    """Cholesky factor of ``base`` when ``point_name`` has none."""
    try:
        return np.linalg.cholesky(base)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            f"neither {point_name} nor {name} is positive definite") from exc


def karcher_mean(points, tolerance=DEFAULT_MEAN_TOLERANCE,
                 max_iterations=DEFAULT_MEAN_MAX_ITERATIONS):
    """Geometric (Karcher) mean of SPD matrices under the geodesic distance.

    Fixed-point iteration: starting from the arithmetic mean (SPD by
    convexity), repeatedly move along the mean tangent direction,
    ``G <- exp_map(G, mean_n log_map(G, P_n))``, until the Frobenius norm
    of that mean tangent step drops below ``tolerance``.

    Parameters
    ----------
    points : sequence of ndarray, or ndarray of shape (R, N, C, C)
        Nonempty collection of SPD matrices of equal dimension, or R
        independent problems of N points each. The problems are solved in
        lockstep, a fixed number at a time, each with its own iterate, step
        scale, backoff and stopping test, so each result equals the
        one-problem call bit for bit; points that are bitwise equal within
        a problem share one whitened log per iteration.
    tolerance : float
        Frobenius-norm threshold on the mean tangent step.
    max_iterations : int
        Iteration cap; exceeding it raises :class:`ConvergenceError`
        carrying the last iterate and the residual at it. For R problems
        these are the (R, C, C) stack (converged problems hold their mean)
        and the array of R residuals; a problem stalled where its residual
        is not below ``tolerance``.

    Returns the (C, C) mean, or the (R, C, C) stack of them. Errors name
    the offending point as ``points[i]``, or ``points[r, i]`` for R
    problems.
    """
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    if not math.isfinite(tolerance):
        raise ValidationError("tolerance must be finite")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    batch = getattr(points, "ndim", None) == 4

    def name(r, i):
        return f"points[{r}, {i}]" if batch else f"points[{i}]"

    if batch:
        pts = np.asarray(points, dtype=float)
    else:
        mats = [_as_square(p, name(0, i)) for i, p in enumerate(points)]
        for i, m in enumerate(mats):
            if m.shape != mats[0].shape:
                raise ValidationError(f"points[{i}] has dim {m.shape[0]}, "
                                      f"expected {mats[0].shape[0]}")
        pts = np.array(mats)[None]
    count, n = pts.shape[:2]
    if not count or not n:
        raise ValidationError("karcher_mean requires at least one matrix")
    dim = _as_square(pts[0, 0], name(0, 0)).shape[0]
    names = [name(r, i) for r in range(count) for i in range(n)]
    pts = _symmetrize_stack(pts.reshape(count * n, dim, dim),
                            names).reshape(pts.shape)
    if n == 1:
        for r in range(count):
            _eigh_spd(pts[r, :1], name(r, 0))
        return pts[:, 0] if batch else pts[0, 0]
    result = np.empty((count, dim, dim))
    residual = np.empty(count)
    for lo in range(0, count, _MEAN_CHUNK):
        part = slice(lo, lo + _MEAN_CHUNK)
        result[part], residual[part] = _lockstep_mean(
            pts[part], lo, name, tolerance, max_iterations)
    stalled = ~(residual < tolerance)
    if not stalled.any():
        return result if batch else result[0]
    if not batch:
        raise ConvergenceError(
            f"geometric mean did not converge in {max_iterations} iterations "
            f"(residual {residual[0]:.3e}, tolerance {tolerance:.3e})",
            last_iterate=result[0],
            residual=float(residual[0]),
        )
    raise ConvergenceError(
        f"geometric mean of {np.count_nonzero(stalled)} of {count} problems "
        f"did not converge in {max_iterations} iterations (largest residual "
        f"{np.max(residual[stalled]):.3e}, tolerance {tolerance:.3e})",
        last_iterate=result,
        residual=residual,
    )


def _lockstep_mean(pts, lo, name, tolerance, max_iterations):
    """The means and final residuals of the problems ``lo, lo + 1, ...``
    of :func:`karcher_mean`, given their (R, N, C, C) symmetrized points;
    a stalled problem's entries are its last iterate and residual."""
    count, n = pts.shape[:2]
    # Only the distinct points of each problem are kept, in order: owner
    # is the active problem each belongs to, and where[r, i] the row of
    # point i of active problem r among them.
    first, where = [], np.empty((count, n), dtype=int)
    for r in range(count):
        seen = {}
        for i in range(n):
            where[r, i] = seen.setdefault(pts[r, i].tobytes(), len(first))
            if where[r, i] == len(first):
                first.append((r, i))
    owner = np.array([r for r, _ in first])
    members = pts[owner, [i for _, i in first]]
    member_names = np.array([name(lo + r, i) for r, i in first], dtype=object)
    mean = pts.mean(axis=1)
    result = np.empty_like(mean)
    final_residual = np.full(count, np.inf)
    active = np.arange(count)
    scale = np.ones(count)
    # the previous half, step and residual of each active problem; a NaN
    # residual means no previous iterate, since no comparison holds
    previous = (None, None, np.full(count, np.nan))
    # a stalled problem reports the residual of the iterate it returns, so
    # the last step is followed by one more residual
    for iteration in range(max_iterations + 1):
        half, inv_half = _whitening(mean, "mean iterate")
        logs = _whitened_logs(inv_half[owner], members, member_names)
        step = logs[where].mean(axis=1)
        # residual is the Frobenius norm of the mean tangent step expressed
        # at the iterate, i.e. of mean_n log_map(G, P_n)
        residual = np.linalg.norm(half @ step @ half, axis=(1, 2))

        done = residual < tolerance
        if done.any():
            result[active[done]] = mean[done]
            final_residual[active[done]] = residual[done]
            keep = ~done
            active, mean, half, step, residual, scale = (
                a[keep] for a in (active, mean, half, step, residual, scale))
            previous = tuple(a if a is None else a[keep] for a in previous)
            if not len(active):
                return result, final_residual
            kept = keep[owner]
            members, member_names = members[kept], member_names[kept]
            owner = (np.cumsum(keep) - 1)[owner[kept]]
            where = (np.cumsum(kept) - 1)[where[keep]]
        if iteration == max_iterations:
            break
        # The full step overshoots once points are spread far apart; back
        # off to the previous iterate with a smaller step. For tightly
        # clustered inputs this never triggers and the iteration is the
        # plain full-step scheme.
        back = residual >= previous[2]
        if back.any():
            half = np.where(back[:, None, None], previous[0], half)
            step = np.where(back[:, None, None], previous[1], step)
            residual = np.where(back, previous[2], residual)
        scale = np.where(back, scale * 0.5, np.minimum(1.0, scale * 2.0))
        previous = (half, step, residual)

        mean = _exp_at(half, scale[:, None, None] * step)
    result[active] = mean
    final_residual[active] = residual
    return result, final_residual


def condition_ratio(p):
    """Ratio of the largest to the smallest eigenvalue of an SPD matrix."""
    w, _ = _eigh_spd(p, "matrix")
    return float(w[-1] / w[0])
