"""Independent output checks for the three benchmark workloads.

Every check recomputes what the program should have produced with plain
numpy (its own EWM recursion, LAPACK ``eigvalsh`` per chunk, a vectorised
likelihood over the whole decay grid) and compares.  Nothing here imports
``streampca`` and nothing compares against a stored copy of earlier output.

Tolerances
----------
EIGEN_TOL
    Relative eigen-residual ||CV - V diag(V^T C V)||_F / ||C||_F and
    orthonormality ||V^T V - I||_F of an EWM basis.  Converged rows reach
    about 1e-15; rows stuck at a false fixed point of the refinement sit at
    1e-4 to 1e-1.  1e-10 is the target of the convergence work on the
    refinement kernel and leaves five decades on either side.
ROW_TOL
    Component row against (x - m) V, relative to ||x - m||.  Both sides are
    one 1 x p by p x p product of the same operands, so they agree to a few
    ulps.
IPCA_TOL
    Per-chunk covariance of the output scores, off-diagonal and diagonal
    against ``eigvalsh`` of the chunk's input covariance, relative to the
    largest eigenvalue.  Warm fits stop at a step norm below 1e-6, which
    leaves errors near 1e-13 after the quadratic last step; 1e-9 keeps a
    margin above that and far below the 1e-2 errors of a stalled chunk.
LOGLIK_RTOL
    Relative difference of each likelihood value from the vectorised
    recomputation.  Summation order differs, so the two agree to about
    1e-15, not bit for bit.
"""

from __future__ import annotations

import csv
import json

import numpy as np

EIGEN_TOL = 1e-10
ROW_TOL = 1e-12
IPCA_TOL = 1e-9
LOGLIK_RTOL = 1e-10


# ---------------------------------------------------------------------------
# ewm-online

def ewm_moments(x: np.ndarray, alpha: float):
    """Means and covariances of the EWM recursion after each row of ``x``.

        m_1 = x_1, S_1 = 0,
        m_t = (1 - a) x_t + a m_{t-1},  S_t = (1 - a)(x_t - m_t)(x_t - m_t)^T + a S_{t-1}.
    """
    n, p = x.shape
    means = np.empty((n, p))
    covs = np.empty((n, p, p))
    means[0] = x[0]
    covs[0] = 0.0
    for t in range(1, n):
        means[t] = (1.0 - alpha) * x[t] + alpha * means[t - 1]
        d = x[t] - means[t]
        covs[t] = (1.0 - alpha) * np.outer(d, d) + alpha * covs[t - 1]
    return means, covs


def ewm_row_errors(x, mean, cov, basis, row) -> tuple[float, float, float]:
    """(eigen-residual, orthonormality error, row error) of one EwmPCA.add."""
    cv = cov @ basis
    lam = np.einsum("ij,ij->j", basis, cv)
    residual = np.linalg.norm(cv - basis * lam) / np.linalg.norm(cov)
    ortho = np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]))
    centered = x - mean
    row_err = np.linalg.norm(row - centered @ basis) / max(np.linalg.norm(centered), 1e-300)
    return float(residual), float(ortho), float(row_err)


def ewm_row_faults(x, mean, cov, basis, row) -> tuple[bool, bool]:
    """(stalled, broken) for one EwmPCA.add.

    ``stalled``: the basis is orthonormal but not an eigenbasis of the
    covariance, the false fixed point of the refinement.  ``broken``: the
    basis is not orthonormal or the row is not (x - m) V.
    """
    residual, ortho, row_err = ewm_row_errors(x, mean, cov, basis, row)
    return not residual <= EIGEN_TOL, not (ortho <= EIGEN_TOL and row_err <= ROW_TOL)


# ---------------------------------------------------------------------------
# ipca-csv

def read_scores_csv(path) -> tuple[list[str], np.ndarray]:
    """Timestamps and score matrix of a ``timestamp,PC1,...`` CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "timestamp":
            raise ValueError(f"{path}: first column is {header[0]!r}, not 'timestamp'")
        stamps, rows = [], []
        for row in reader:
            stamps.append(row[0])
            rows.append([float(v) for v in row[1:]])
    return stamps, np.array(rows)


def ipca_problems(
    data: np.ndarray,
    stamps: list[str],
    bounds: list[tuple[int, int]],
    out_stamps: list[str],
    scores: np.ndarray,
    sidecar: dict,
) -> list[str]:
    """Reasons the ``ipca`` output is wrong; empty when it passes.

    Within each chunk the scores' sample covariance must be diagonal with
    ``eigvalsh`` of the chunk's input covariance on its diagonal, in
    descending order, and the sidecar must carry the same eigenvalues.
    """
    problems = []
    if scores.shape != data.shape:
        problems.append(f"scores have shape {scores.shape}, input {data.shape}")
        return problems
    if out_stamps != stamps:
        problems.append("output timestamps differ from the input's")
    listed = sidecar.get("eigenvalues") or []
    if len(listed) != len(bounds):
        problems.append(f"sidecar lists {len(listed)} chunks, expected {len(bounds)}")
        return problems
    for k, (lo, hi) in enumerate(bounds):
        expected = np.linalg.eigvalsh(np.cov(data[lo:hi], rowvar=False))[::-1]
        scale = expected[0]
        got = np.cov(scores[lo:hi], rowvar=False)
        off = np.max(np.abs(got - np.diag(np.diag(got)))) / scale
        diag = np.max(np.abs(np.diag(got) - expected)) / scale
        side = np.max(np.abs(np.asarray(listed[k]) - expected)) / scale
        if not (off <= IPCA_TOL and diag <= IPCA_TOL and side <= IPCA_TOL):
            problems.append(
                f"chunk {k}: off-diagonal {off:.1e}, diagonal {diag:.1e}, "
                f"sidecar {side:.1e} (relative to the largest eigenvalue)"
            )
    return problems


# ---------------------------------------------------------------------------
# alpha-grid

def loglik_grid(x: np.ndarray, grid: np.ndarray, burn_in: int) -> np.ndarray:
    """EWM prediction-error log-likelihood for every decay of ``grid`` at once.

    All G moment recursions advance together as (G, p) means and (G, p, p)
    covariances; each scored row is factored with one batched Cholesky.
    """
    n, p = x.shape
    a = np.asarray(grid, dtype=np.float64)[:, None]
    mean = np.repeat(x[:1], a.shape[0], axis=0)
    cov = np.zeros((a.shape[0], p, p))
    total = np.zeros(a.shape[0])
    for t in range(1, n):
        if t >= burn_in:
            chol = np.linalg.cholesky(cov)
            e = x[t] - mean
            y = np.linalg.solve(chol, e[:, :, None])[:, :, 0]
            total += 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
            total += (y * y).sum(axis=1)
        mean = (1.0 - a) * x[t] + a * mean
        d = x[t] - mean
        cov = (1.0 - a)[:, :, None] * (d[:, :, None] * d[:, None, :]) + a[:, :, None] * cov
    return -0.5 * total


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["alpha", "loglik"]:
            raise ValueError(f"{path}: header is not 'alpha,loglik'")
        pairs = np.array([[float(a), float(v)] for a, v in reader])
    return pairs[:, 0], pairs[:, 1]


def alpha_problems(
    grid: np.ndarray,
    expected: np.ndarray,
    curve_alphas: np.ndarray,
    curve: np.ndarray,
    printed_alpha: float,
    sidecar: dict,
) -> list[str]:
    """Reasons the ``estimate-alpha`` output is wrong; empty when it passes."""
    if curve.shape != expected.shape:
        return [f"curve has {curve.shape[0]} points, grid {expected.shape[0]}"]
    problems = []
    if np.max(np.abs(curve_alphas - grid)) > 1e-12:
        problems.append("curve alphas differ from the grid")
    rel = np.max(np.abs(curve - expected) / np.abs(expected))
    if not rel <= LOGLIK_RTOL:
        problems.append(f"likelihood differs by {rel:.1e} (relative)")
    best = float(grid[int(np.argmax(expected))])
    for label, value in (("printed", printed_alpha), ("sidecar", sidecar.get("alpha"))):
        if value is None or abs(value - best) > 1e-12:
            problems.append(f"{label} argmax {value} != {best}")
    return problems


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
