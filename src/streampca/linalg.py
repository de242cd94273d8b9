"""Dense real-matrix primitives and a from-scratch symmetric eigensolver.

Plain float64 numpy arrays throughout.  The cyclic Jacobi solver is kept
independent of the refinement machinery on purpose: it provides first-fit
eigenbases and doubles as the reference decomposition in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenBasis",
    "as_matrix",
    "as_vector",
    "symmetrize",
    "frobenius_norm",
    "fix_column_signs",
    "jacobi_eigh",
    "sample_covariance",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array with >= 1 row and column, all entries finite."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """(A + A^T)/2 for square A.  IEEE addition commutes, so the result is
    bit-identical whether built from A or A^T."""
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return (arr + arr.T) / 2.0


def frobenius_norm(m) -> float:
    """sqrt of the sum of squared entries.  No finiteness check: hot path."""
    arr = np.asarray(m, dtype=np.float64)
    return math.sqrt((arr * arr).sum())


def fix_column_signs(v) -> np.ndarray:
    """Flip columns so each column's largest-magnitude entry is positive.

    Ties resolve to the lowest row index (np.argmax convention).  Used to pin
    eigenvector signs on first fits; warm-started refits inherit signs from
    the previous basis instead.
    """
    out = np.array(v, dtype=np.float64, copy=True)
    lead = np.argmax(np.abs(out), axis=0)
    flip = out[lead, np.arange(out.shape[1])] < 0.0
    out[:, flip] *= -1.0
    return out


@dataclass(frozen=True)
class EigenBasis:
    """Column eigenvectors paired with eigenvalues, sorted non-increasing."""

    vectors: np.ndarray
    values: np.ndarray


def _offdiag_norm(a: np.ndarray) -> float:
    # Summing a copy with the diagonal zeroed avoids the cancellation that a
    # total-minus-diagonal formula hits once the off-diagonal mass is tiny.
    od = a.copy()
    np.fill_diagonal(od, 0.0)
    return float(np.sqrt(np.sum(od * od)))


def jacobi_eigh(a, max_sweeps: int = 100) -> EigenBasis:
    """Full eigendecomposition of a real symmetric matrix by cyclic Jacobi sweeps.

    Each rotation zeroes one off-diagonal pair; sweeps repeat until the
    off-diagonal Frobenius mass drops below 1e-13 * max(1, ||A||_F), which
    leaves the residual ||A V - V diag(values)||_F comfortably under
    1e-12 * max(1, ||A||_F).  Deterministic: fixed cyclic order, no randomness.

    Raises RuntimeError if the sweep cap is reached (pathological input).
    """
    work = symmetrize(a)
    n = work.shape[0]
    vectors = np.eye(n)
    stop = 1e-13 * max(1.0, frobenius_norm(work))
    # n*n entries at stop/n each still keep the off-norm at or below stop, so
    # entries under this floor never need rotating (also keeps tau finite).
    floor = stop / n
    sweep = 0
    while True:
        off = _offdiag_norm(work)
        if off <= stop:
            break
        if sweep >= max_sweeps:
            raise RuntimeError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off:.3e})"
            )
        # Early sweeps skip entries too small to matter yet.
        thresh = max(0.2 * off / n if sweep < 3 else 0.0, floor)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= thresh:
                    continue
                app = work[p, p]
                aqq = work[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if abs(tau) < 1e150:
                    root = np.sqrt(1.0 + tau * tau)
                    t = 1.0 / (tau + root) if tau >= 0.0 else 1.0 / (tau - root)
                else:
                    # tau^2 would overflow; the rotation angle is ~1/(2 tau)
                    t = 1.0 / (2.0 * tau)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s * col_q
                work[:, q] = s * col_p + c * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s * row_q
                work[q, :] = s * row_p + c * row_q
                # Analytic values for the rotated 2x2 block keep symmetry exact.
                work[p, p] = app - t * apq
                work[q, q] = aqq + t * apq
                work[p, q] = 0.0
                work[q, p] = 0.0
                vec_p = vectors[:, p].copy()
                vec_q = vectors[:, q].copy()
                vectors[:, p] = c * vec_p - s * vec_q
                vectors[:, q] = s * vec_p + c * vec_q
        sweep += 1
    values = np.diag(work).copy()
    order = np.argsort(-values, kind="stable")
    return EigenBasis(vectors=vectors[:, order], values=values[order])


def sample_covariance(x) -> tuple[np.ndarray, np.ndarray]:
    """Column means and the unbiased (n-1 divisor) sample covariance, symmetrized."""
    mat = as_matrix(x, "X")
    n = mat.shape[0]
    if n < 2:
        raise ValueError(f"sample covariance needs at least 2 rows, got {n}")
    means = mat.mean(axis=0)
    centered = mat - means
    q = centered.T @ centered / (n - 1)
    return means, (q + q.T) / 2.0
