"""Dense real-matrix primitives and a from-scratch symmetric eigensolver.

Plain float64 numpy arrays throughout.  The round-robin Jacobi solver is kept
independent of the refinement machinery on purpose: it provides first-fit
eigenbases and doubles as the reference decomposition in tests.  It stops
relative to ||A||_F, as the refinement's certificate does, and runs on A scaled
by a power of two, so results do not depend on the units of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenBasis",
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "checked_norm",
    "overflow_error",
    "fix_column_signs",
    "jacobi_eigh",
    "sample_covariance",
    "cross_statistics",
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


def frobenius_norm(m) -> float:
    """sqrt of the sum of squared entries, summed by one BLAS dot product of the
    raveled array with itself.  No finiteness check: hot path."""
    v = np.asarray(m, dtype=np.float64).ravel()
    return math.sqrt(np.dot(v, v))


def overflow_error(what: str, m) -> OverflowError:
    """The error for a value ``what`` that the finite entries of ``m`` overflow."""
    return OverflowError(f"{what} overflows float64 (largest entry {np.abs(m).max():.3e}); "
                         "rescale the data")


def checked_norm(m: np.ndarray, name: str, where: str) -> tuple[np.ndarray, int, float]:
    """(M 2^-e, e, ||M 2^-e||_F) for a square float64 array M, with e the binary exponent of
    max |m_ij|, so that no square of the scaled copy over- or underflows; or the one refusal
    of the numerical core: ValueError if M holds a NaN or an infinity, else OverflowError,
    prefixed ``where``, if ||M||_F >= 2^512, where its square overflows float64."""
    top = np.abs(m).max()
    if not math.isfinite(top):
        raise ValueError(f"{name} contains non-finite entries")
    e = math.frexp(top)[1]
    scaled = np.ldexp(m, -e)
    norm = frobenius_norm(scaled)
    if math.frexp(norm)[1] + e > 512:
        raise overflow_error(f"{where}: the Frobenius norm of the {len(m)} x {len(m)} input", m)
    return scaled, e, norm


def fix_column_signs(v) -> np.ndarray:
    """Flip columns so each column's largest-magnitude entry is positive.

    Ties resolve to the lowest row index (np.argmax convention).
    ``jacobi_eigh`` pins its eigenvector signs this way; warm-started refits
    inherit signs from the previous basis instead.
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


# Sweep cap of jacobi_eigh; reaching it raises (pathological input).
MAX_SWEEPS = 100


def _round_robin(n: int) -> np.ndarray:
    """(rounds, n // 2, 2) pairs p < q, each unordered pair once, disjoint within
    a round (circle method).  An odd n is padded with index n, whose pairs are left out."""
    m = n + n % 2
    k = np.arange(m // 2)
    a = (np.arange(m - 1)[:, None] + k) % (m - 1)
    b = np.where(k, (a - 2 * k) % (m - 1), m - 1)
    return np.stack((np.minimum(a, b), np.maximum(a, b)), axis=2)[:, n % 2 :]


def jacobi_eigh(a) -> EigenBasis:
    """Full eigendecomposition of a real symmetric matrix by round-robin Jacobi sweeps.

    A sweep runs the rounds of Brent & Luk's parallel ordering (SIAM J. Sci.
    Stat. Comput. 6, 1985); a round rotates its n // 2 disjoint pairs at once,
    W <- J^T W J and V <- V J.  Sweeps stop once the off-diagonal Frobenius mass
    is below 1e-13 * ||A||_F, leaving ||A V - V diag(values)||_F well under
    1e-12 * ||A||_F.  The rule is relative, so A scaled by a power of two gives
    the same vectors, bit for bit, and its values scaled by that power.  Column
    signs are pinned by ``fix_column_signs``; fixed order, no randomness.  The
    raw A passes the kernel's gate, ``checked_norm``: ValueError for a NaN or an
    infinity, OverflowError if ||A||_F^2 overflows float64.  Sweeps run on
    (A + A^T)/2 of the gate's copy 2^-e A, which IEEE addition makes
    bit-identical for A and A^T and whose squares neither over- nor underflow,
    and the values are scaled back by 2^e.
    RuntimeError after ``MAX_SWEEPS`` sweeps.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
    a, e, _ = checked_norm(a, "matrix", "Jacobi eigensolver")
    work = (a + a.T) / 2.0
    norm = frobenius_norm(work)
    n = work.shape[0]
    p, q = np.moveaxis(_round_robin(n), 2, 0)
    # flat indices of the (p, p), (q, q), (p, q) and (q, p) entries, per round
    rounds = list(zip(p * (n + 1), q * (n + 1), p * n + q, q * n + p))
    ones, eye, vectors = np.ones(p.shape[1]), np.eye(n), np.eye(n)
    stop = 1e-13 * norm
    # Entries under the floor never need rotating (n*n of them keep the off-norm
    # <= stop), and it bounds |tau| = |aqq - app| / (2 |apq|) <= n * 1e13.
    floor = stop / n
    sweep = 0
    while True:
        # d - d == 0 exactly: no total-minus-diagonal cancellation
        off = frobenius_norm(work - np.diag(work.diagonal()))
        if off <= stop:
            break
        if sweep >= MAX_SWEEPS:
            raise RuntimeError(
                f"Jacobi eigensolver did not converge in {MAX_SWEEPS} sweeps "
                f"(off-diagonal norm {off:.3e})"
            )
        # Early sweeps skip entries too small to matter yet.
        thresh = max(0.2 * off / n if sweep < 3 else 0.0, floor)
        for pp, qq, pq, qp in rounds:
            app, aqq, apq = work.take(pp), work.take(qq), work.take(pq)
            rot = np.abs(apq) > thresh
            if not np.count_nonzero(rot):
                continue
            # pairs at or under thresh get t = 0: c = 1, s = 0
            tau = (aqq - app) / np.where(rot, apq + apq, ones)
            t = rot * np.copysign(ones / (np.abs(tau) + np.hypot(ones, tau)), tau)
            c = ones / np.hypot(ones, t)
            rotation = eye.copy()
            cells = rotation.reshape(-1)
            cells[pp] = cells[qq] = c
            cells[pq], cells[qp] = t * c, -t * c
            work = rotation.T @ (work @ rotation)
            vectors = vectors @ rotation
            # Analytic values for the rotated 2x2 blocks.
            cells = work.reshape(-1)
            cells[pp], cells[qq] = app - t * apq, aqq + t * apq
            cells[pq] = cells[qp] = np.where(rot, 0.0, apq)
        work = (work + work.T) / 2.0  # J^T (W J) rounds rows and columns apart
        sweep += 1
    values = np.ldexp(np.diag(work), e)
    order = np.argsort(-values, kind="stable")
    return EigenBasis(vectors=fix_column_signs(vectors[:, order]), values=values[order])


def sample_covariance(x) -> tuple[np.ndarray, np.ndarray]:
    """Column means and the unbiased (n-1 divisor) sample covariance, symmetrized.
    Raises OverflowError, without a numpy warning, when finite data overflow it."""
    mat = as_matrix(x, "X")
    n, p = mat.shape
    if n < 2:
        raise ValueError(f"sample covariance needs at least 2 rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        means = mat.mean(axis=0)
        centered = mat - means
        q = centered.T @ centered / (n - 1)
        q = (q + q.T) / 2.0
    if not np.isfinite(q).all():
        raise overflow_error(f"sample covariance of the {n} x {p} input", mat)
    return means, q


def cross_statistics(z1, z2) -> tuple[np.ndarray, np.ndarray]:
    """Column-by-column covariance (n-1 divisor) and correlation between two
    component series of one (n >= 2, p) shape."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape or z1.ndim != 2 or z1.shape[0] < 2:
        raise ValueError("component series must share a (n >= 2, p) shape")
    n1 = z1.shape[0] - 1
    c1 = z1 - z1.mean(axis=0)
    c2 = z2 - z2.mean(axis=0)
    cov = c1.T @ c2 / n1
    # The variances multiply a second centred copy: c.T @ c of a single array
    # takes BLAS's syrk path, whose last bits differ from this gemm product.
    s1 = np.sqrt(np.diag(c1.T @ (z1 - z1.mean(axis=0)) / n1))
    s2 = np.sqrt(np.diag(c2.T @ (z2 - z2.mean(axis=0)) / n1))
    if np.any(s1 == 0.0) or np.any(s2 == 0.0):
        raise ValueError("zero-variance component: correlation undefined")
    return cov, cov / np.outer(s1, s2)
