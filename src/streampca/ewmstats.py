"""Exponentially weighted moving mean/covariance and ML fitting of the decay.

For p-dimensional observations x_1, x_2, ... and a decay 0 < alpha < 1:

    m_1 = x_1        m_t = (1 - alpha) x_t + alpha m_{t-1}
    S_1 = 0          S_t = (1 - alpha)(x_t - m_t)(x_t - m_t)^T + alpha S_{t-1}

The covariance recursion centres on the freshly updated mean (m_t, not
m_{t-1}).  Cf. Tsay, Analysis of Financial Time Series, 3rd ed., ch. 10,
where alpha ~ 0.9305 is quoted as typical of practice.

For Gaussian data the decay can be fitted by maximizing the prediction-error
log-likelihood

    ln L(alpha) = -1/2 sum_t [ ln det S_{t-1}
                               + (x_t - m_{t-1})^T S_{t-1}^{-1} (x_t - m_{t-1}) ]

with the first ``burn_in`` terms dropped: S has rank at most t - 1, so the
early terms are singular by construction.  ``estimate_alpha`` grid-searches
this likelihood; it is cheap, one-dimensional, and fully deterministic.

The whole grid is scored in one pass over the rows: the moments of all G
decays advance together as (G, p) means and (G, p, p) covariances, and each
scored row factors all G covariances with one batched Cholesky.  Grids whose
(G, p, p) working set would exceed ``_GRID_BLOCK_BYTES`` are scored in
blocks of decays.  ``ewm_loglik`` is the same computation with G = 1; the
decays are independent and the arithmetic is elementwise, so a curve entry
equals the standalone value bit for bit whatever the grid or its blocking.
A covariance that is singular to working precision raises
``SingularCovarianceError`` with the earliest failing observation ``t`` and,
of the decays failing there, the ``alpha`` lowest in the grid.  Singular
means that Cholesky fails or that some pivot of the factor L that it does
return has diag(L)_i^2 <= p eps S_ii.  Cholesky alone fails on a
rank-deficient S only when rounding drives a pivot to zero or below, so
the relative test makes the failing observation independent of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector

__all__ = [
    "EwmState",
    "SingularCovarianceError",
    "ewm_init",
    "ewm_update",
    "ewm_loglik",
    "estimate_alpha",
    "default_alpha_grid",
]


# Bytes that the (G, p, p) arrays of one block of decays may hold: the
# covariances, their rank-one updates and their Cholesky factors, three at a
# time (a block always holds at least one decay).  At p = 100 the default
# 500-value grid would need 120 MB at once; it runs in blocks of 139.
_GRID_BLOCK_BYTES = 32 * 2**20


class SingularCovarianceError(RuntimeError):
    """The moving covariance of decay ``alpha`` could not be factorized when
    scoring observation ``t`` (1-based)."""

    def __init__(self, t: int, alpha: float):
        self.t = t
        self.alpha = alpha
        super().__init__(
            f"moving covariance matrix is singular at observation t={t} (alpha={alpha})"
        )


@dataclass(frozen=True)
class EwmState:
    """Running exponentially weighted moments after ``count`` observations."""

    alpha: float
    mean: np.ndarray
    cov: np.ndarray
    count: int


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return alpha


def ewm_init(x1, alpha: float) -> EwmState:
    """State after the first observation: mean = x1, covariance = 0."""
    alpha = _check_alpha(alpha)
    x = as_vector(x1, "x1")
    p = x.shape[0]
    return EwmState(alpha=alpha, mean=x.copy(), cov=np.zeros((p, p)), count=1)


def ewm_update(state: EwmState, x) -> EwmState:
    """Fold one observation into the running moments.

    The mean moves first; the covariance's rank-one term is centred on the
    updated mean.  Both recursions preserve exact symmetry of S (outer
    products are bit-symmetric).
    """
    x = as_vector(x, "x")
    if x.shape != state.mean.shape:
        raise ValueError(
            f"observation has dimension {x.shape[0]}, state has {state.mean.shape[0]}"
        )
    a = state.alpha
    mean = (1.0 - a) * x + a * state.mean
    d = x - mean
    cov = (1.0 - a) * np.outer(d, d) + a * state.cov
    return EwmState(alpha=a, mean=mean, cov=cov, count=state.count + 1)


def _check_burn_in(burn_in: int | None, p: int) -> int:
    if burn_in is None:
        return 10 * p
    burn_in = int(burn_in)
    if burn_in < p + 1:
        raise ValueError(
            f"burn_in must be at least p + 1 = {p + 1} (S_t has rank < p before "
            f"that), got {burn_in}"
        )
    return burn_in


def _small_pivots(diag_l: np.ndarray, cov: np.ndarray, tiny: float) -> np.ndarray:
    """Elementwise diag(L)_i^2 <= tiny * S_ii, for one or a stack of covariances."""
    return diag_l * diag_l <= tiny * np.diagonal(cov, axis1=-2, axis2=-1)


def _score_block(mat: np.ndarray, alphas: np.ndarray, burn_in: int):
    """Sum of ln det S_{t-1} + e^T S_{t-1}^{-1} e over t > burn_in, per decay.

    Returns the (G,) sums and None, or, at the first row with a singular
    covariance (see the module docstring), the partial sums and (t, lowest
    failing index into ``alphas``).
    The recursions repeat ``ewm_update``'s elementwise arithmetic exactly.
    """
    n, p = mat.shape
    tiny = p * np.finfo(np.float64).eps
    a = alphas[:, None]
    b = 1.0 - a
    a3 = a[:, :, None]
    b3 = b[:, :, None]
    mean = np.repeat(mat[:1], alphas.shape[0], axis=0)
    cov = np.zeros((alphas.shape[0], p, p))
    total = np.zeros(alphas.shape[0])
    for t in range(2, n + 1):
        x_t = mat[t - 1]
        if t > burn_in:
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                # cold path: name the lowest decay that fails either test here
                for k in range(alphas.shape[0]):
                    try:
                        chol_k = np.linalg.cholesky(cov[k])
                    except np.linalg.LinAlgError:
                        return total, (t, k)
                    if _small_pivots(np.diagonal(chol_k), cov[k], tiny).any():
                        return total, (t, k)
                raise
            diag_l = np.diagonal(chol, axis1=1, axis2=2)
            small = _small_pivots(diag_l, cov, tiny)
            if small.any():
                return total, (t, int(np.argmax(small.any(axis=1))))
            e = x_t - mean
            y = np.linalg.solve(chol, e[:, :, None])[:, :, 0]
            logdet = 2.0 * np.log(diag_l).sum(axis=1)
            total += logdet + (y * y).sum(axis=1)
            del chol, diag_l  # keeps at most three (G, p, p) arrays alive
        mean = b * x_t + a * mean
        d = x_t - mean
        rank_one = d[:, :, None] * d[:, None, :]
        rank_one *= b3
        cov *= a3
        cov += rank_one
    return total, None


def _loglik_curve(mat: np.ndarray, grid: np.ndarray, burn_in: int) -> np.ndarray:
    """ln L for every decay of a validated grid, in blocks of at most
    ``_GRID_BLOCK_BYTES``.  On failure raises for the earliest failing t and,
    among the decays failing there, the lowest grid index."""
    p = mat.shape[1]
    size = max(1, _GRID_BLOCK_BYTES // (3 * 8 * p * p))
    curve = np.empty(grid.shape[0])
    failure = None
    for lo in range(0, grid.shape[0], size):
        # after a failure at t only an earlier one can replace it, and a later
        # block fails at the same t with a higher index, so stop before t
        rows = mat if failure is None else mat[: failure[0] - 1]
        total, block_failure = _score_block(rows, grid[lo : lo + size], burn_in)
        if block_failure is not None:
            failure = (block_failure[0], lo + block_failure[1])
        curve[lo : lo + size] = -0.5 * total
    if failure is not None:
        raise SingularCovarianceError(failure[0], float(grid[failure[1]]))
    return curve


def ewm_loglik(x, alpha: float, burn_in: int | None = None) -> float:
    """Gaussian log-likelihood of the decay, up to an additive constant.

    Prediction-error decomposition: observation t is scored against the
    moments accumulated from observations 1..t-1,

        -1/2 sum_{t > burn_in} [ ln det S_{t-1}
                                 + (x_t - m_{t-1})^T S_{t-1}^{-1} (x_t - m_{t-1}) ],

    which is the standard evaluation for recursively estimated Gaussian
    covariances (cf. Tsay, ch. 10).  Scoring x_t against the same-step S_t
    would let the covariance explain the very observation being scored and
    drives the maximizer to the smallest decay on any data.

    Terms with t <= burn_in are dropped (default burn_in: 10 p): the moving
    covariance has rank at most t - 1, so early terms are singular by
    construction.  Factorizations are symmetric (Cholesky): ln det S is twice
    the sum of the logs of the factor's diagonal, and the quadratic term is
    |L^{-1} e|^2.  A covariance that is singular to working precision (the
    factorization fails, or a pivot diag(L)_i^2 is at most p eps S_ii)
    raises SingularCovarianceError, carrying the observation ``t`` and the
    decay ``alpha``, rather than regularizing silently: a ridge term would
    bias the fitted decay.

    This is ``estimate_alpha``'s grid computation with a one-value grid, so
    ``estimate_alpha(x, grid)[1][i] == ewm_loglik(x, grid[i])`` bit for bit.
    """
    mat = as_matrix(x, "X")
    burn_in = _check_burn_in(burn_in, mat.shape[1])
    grid = np.array([_check_alpha(alpha)])
    return float(_loglik_curve(mat, grid, burn_in)[0])


def default_alpha_grid() -> np.ndarray:
    """0.500, 0.501, ..., 0.999."""
    return np.arange(500, 1000) / 1000.0


def estimate_alpha(
    x, grid=None, burn_in: int | None = None
) -> tuple[float, np.ndarray]:
    """Grid-search ML estimate of the decay.

    Returns the argmax (lowest index wins exact ties, per np.argmax) and the
    full likelihood curve in grid order.  All decays are scored in one pass
    over the rows (see ``ewm_loglik``); if any covariance is singular, the
    error names the earliest failing observation and, among the decays that
    fail there, the one with the lowest grid index.
    """
    mat = as_matrix(x, "X")
    grid = default_alpha_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 1:
        raise ValueError("grid must be a non-empty 1-d array of decay values")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("grid values must lie strictly between 0 and 1")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be sorted in ascending order")
    curve = _loglik_curve(mat, grid, _check_burn_in(burn_in, mat.shape[1]))
    best = int(np.argmax(curve))
    return float(grid[best]), curve
