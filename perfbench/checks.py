"""Correctness checks on benchmark outputs, run outside the timed region.

Two kinds of check:

* golden values recorded from a known-good commit for the seeds listed in
  ``golden.json`` (exact for discrete outputs, 1e-9 relative for floats);
* for any seed, an independent formula: the affine-invariant distance
  ``sqrt(sum log^2 lambda)`` over the generalized eigenvalues of
  ``(S, C_k)`` from ``scipy.linalg.eigh``, and the Karcher-mean
  optimality condition computed the same way.
"""

import json
import math
from pathlib import Path

import numpy as np
from scipy import linalg

RTOL = 1e-9
GOLDEN_PATH = Path(__file__).with_name("golden.json")


class Checker:
    """Collects failed expectations; the run is correct when none fail."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
        return bool(ok)


def close(a, b, rtol=RTOL):
    """Equal within ``rtol`` relative; ``None`` only equals ``None``."""
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-300)


def formula_distances(cov, centers):
    """Geodesic distances from ``cov`` to each center, from the formula."""
    return np.array([
        math.sqrt(float(np.sum(np.log(
            linalg.eigh(cov, center, eigvals_only=True)) ** 2)))
        for center in centers])


def check_distances(checker, where, program, expected, label=None):
    """Program distances against the formula; the label against its argmin.

    The label check is skipped when the two nearest centers tie within
    the tolerance, since either answer is then correct.
    """
    checker.expect(
        len(program) == len(expected)
        and all(close(float(p), float(e)) for p, e in zip(program, expected)),
        f"{where}: distances {list(program)} != formula {list(expected)}")
    if label is None:
        return
    nearest = np.sort(expected)
    if len(nearest) > 1 and close(nearest[0], nearest[1]):
        return
    checker.expect(label == int(np.argmin(expected)) + 1,
                   f"{where}: label {label} but formula argmin is "
                   f"{int(np.argmin(expected)) + 1}")


def karcher_residual(mean, points):
    """Frobenius norm of the mean log map at ``mean``.

    With ``V`` the generalized eigenvectors of ``(P, G)`` (so that
    ``V^T G V = I``), ``log_G(P) = G V diag(log lambda) V^T G``.
    """
    step = np.zeros_like(mean)
    for point in points:
        w, v = linalg.eigh(point, mean)
        step += (v * np.log(w)) @ v.T
    step /= len(points)
    return float(np.linalg.norm(mean @ step @ mean))


def sample_indices(count, k, seed):
    """``k`` distinct sorted indices in ``range(count)``, from the seed."""
    rng = np.random.default_rng([seed, count])
    return sorted(int(i) for i in rng.choice(count, size=min(k, count),
                                             replace=False))


def load_golden(workload, seed):
    """Golden values recorded for ``(workload, seed)``, or ``None``."""
    if not GOLDEN_PATH.is_file():
        return None
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return golden.get(workload, {}).get(str(seed))


def compare_bench_rows(checker, rows, golden_rows, discrete, where):
    """Discrete columns exactly, float columns to ``RTOL``."""
    if not checker.expect(len(rows) == len(golden_rows),
                          f"{where}: {len(rows)} rows, golden has "
                          f"{len(golden_rows)}"):
        return
    for i, (row, gold) in enumerate(zip(rows, golden_rows)):
        for col, (value, expected) in enumerate(zip(row, gold)):
            ok = value == expected if col in discrete else close(value,
                                                                 expected)
            checker.expect(ok, f"{where}: row {i} column {col} is {value!r}, "
                               f"golden {expected!r}")
