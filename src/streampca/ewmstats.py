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
decays advance together as (G, p) means and (G, p, p) covariances.  The
rows run in blocks.  Within a block the mean and covariance recursions
still advance one row at a time, with ``ewm_update``'s elementwise
arithmetic; the terms that do not feed back, (1 - alpha) x_t and the
rank-one updates, are formed once per block, each in the slot of the sum
it goes into, and so are the errors x_t - m_{t-1}.  The S_{t-1} of every
scored row of a block stay in a stack, and one batched Cholesky call
factors all of them.  One copy of the factors, laid out so that each
column of L across the whole stack is a contiguous row, takes the place of
the covariances they factor; the pivot test, ln det S and a forward
substitution for L^{-1} e, p vector steps in all, read that copy.  Every
sum of p terms runs along a contiguous row: numpy sums such a row of 8 or
more in unrolled partial sums, and a strided axis in plain order, so a sum
across the stack's layout would change the last bits.  A block holds at
most ``_ROW_BLOCK_BYTES`` of covariances, so memory stays flat; once a
single row's (G, p, p) stack exceeds that, each block holds one row.
Grids whose (G, p, p) working set would exceed ``_GRID_BLOCK_BYTES`` are
scored in blocks of decays.  ``ewm_loglik`` is the same computation with
G = 1; the decays are independent, the arithmetic is elementwise and every
sum runs over p entries in a fixed order, so a curve entry equals the
standalone value bit for bit whatever the grid or its blocking, of decays
or of rows.
A covariance that is singular to working precision raises
``SingularCovarianceError`` with the earliest failing observation ``t`` and,
of the decays failing there, the ``alpha`` lowest in the grid.  Singular
means that Cholesky fails or that some pivot of the factor L that it does
return has diag(L)_i^2 <= p eps S_ii.  Cholesky alone fails on a
rank-deficient S only when rounding drives a pivot to zero or below, so
the relative test makes the failing observation independent of rounding.
A sum of terms that overflows float64, as one far outlier's
e^T S^-1 e can, raises OverflowError with the observation and decay named
the same way, in the same order as singular covariances.  The check runs
once per block of rows, on the running sums of the block.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, overflow_error

__all__ = [
    "EwmState",
    "SingularCovarianceError",
    "ewm_init",
    "ewm_update",
    "ewm_loglik",
    "estimate_alpha",
    "default_alpha_grid",
]


# Bytes that the (G, p, p) arrays of one block of decays may hold: two
# covariances, alpha at their shape, and a scratch slot or the Cholesky
# factors of one, four at a time when a block of rows holds one row (a block
# always holds at least one decay).  At p = 100 the default 500-value grid would need 160 MB
# at once; it runs in blocks of 104.
_GRID_BLOCK_BYTES = 32 * 2**20

# Bytes of covariances that one block of rows may hold besides the one it
# starts from (their Cholesky factors take as much again).  A 19-value grid
# at p = 9 runs 10 rows per block; a block of decays whose (G, p, p) stack
# alone exceeds this budget runs one row per block.
_ROW_BLOCK_BYTES = 128 * 2**10


class SingularCovarianceError(RuntimeError):
    """The moving covariance of decay ``alpha`` could not be factorized when
    scoring observation ``t`` (1-based).

    Given the dimension ``p``, the message also says when the decay alone
    explains it: with alpha^p < p eps, only the ln(p eps) / ln(alpha) < p most
    recent rows weigh more than p eps of the newest, so no moving covariance
    of that decay has full rank to working precision."""

    def __init__(self, t: int, alpha: float, p: int | None = None):
        self.t = t
        self.alpha = alpha
        message = f"moving covariance matrix is singular at observation t={t} (alpha={alpha})"
        eps = np.finfo(np.float64).eps
        if p is not None and alpha**p < p * eps:
            message += (
                f"; at this decay only about {int(math.log(p * eps) / math.log(alpha))} recent "
                f"rows weigh more than p*eps of the newest, fewer than the p={p} columns: "
                f"raise the grid's lowest decay (alpha^p >= p*eps needs alpha >= "
                f"{math.ceil(1000.0 * (p * eps) ** (1.0 / p)) / 1000.0})"
            )
        super().__init__(message)


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
    x = as_vector(x1, "x")  # named as ewm_update names every later row
    p = x.shape[0]
    return EwmState(alpha=alpha, mean=x.copy(), cov=np.zeros((p, p)), count=1)


def ewm_update(state: EwmState, x) -> EwmState:
    """Fold one observation into the running moments.

    The mean moves first; the covariance's rank-one term is centred on the
    updated mean.  Both recursions preserve exact symmetry of S (outer
    products are bit-symmetric).  Raises OverflowError, without a numpy
    warning, when the finite observation drives S past float64.
    """
    x = as_vector(x, "x")
    if x.shape != state.mean.shape:
        raise ValueError(
            f"observation has dimension {x.shape[0]}, state has {state.mean.shape[0]}"
        )
    a = state.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (1.0 - a) * x + a * state.mean
        d = x - mean
        cov = (1.0 - a) * np.outer(d, d) + a * state.cov
    if not np.isfinite(cov).all():
        raise overflow_error("moving covariance", x)
    return EwmState(alpha=a, mean=mean, cov=cov, count=state.count + 1)


def _check_burn_in(burn_in: int | None, n: int, p: int) -> int:
    """The burn-in (default 10 p) of an n x p input, which must leave at
    least one observation t > burn_in to score."""
    burn_in = 10 * p if burn_in is None else int(burn_in)
    if burn_in < p + 1:
        raise ValueError(
            f"burn_in must be at least p + 1 = {p + 1} (S_t has rank < p before "
            f"that), got {burn_in}"
        )
    if burn_in >= n:
        raise ValueError(
            f"burn_in = {burn_in} leaves no observation to score: it must be "
            f"below the row count n = {n}"
        )
    return burn_in


def _forward_substitute(cols: np.ndarray, y: np.ndarray) -> None:
    """Overwrite ``y`` (p, M) with L^{-1} y for the M lower-triangular factors
    stored column by column in ``cols`` (p, p, M): cols[i, j] = L[j, i].

    Forward substitution one column of L at a time, each step elementwise
    across the stack, so the solution of one system does not depend on the
    stack it sits in.  The stack runs along the contiguous last axis, so each
    step is a few long vector operations.
    """
    for i in range(y.shape[0]):
        y[i] /= cols[i, i]
        y[i + 1 :] -= cols[i, i + 1 :] * y[i]


def _terms(covs: np.ndarray, errors: np.ndarray, tiny: float):
    """ln det S + |L^{-1} e|^2 of each covariance of the (..., p, p) stack
    ``covs`` and error of the (..., p) stack ``errors``, and whether that
    covariance is singular; raises LinAlgError where Cholesky fails.  An
    overflowing term comes back non-finite, without a numpy warning.

    Once Cholesky has gone through, ``covs`` is overwritten with the copy of
    the factors that the pivot test, ln det S and the forward substitution
    read, so that scoring a stack takes no more memory than its factors.
    """
    shape, p = covs.shape[:-2], errors.shape[-1]
    y = errors.reshape(-1, p).T.copy()
    # p eps S_ii, before the copy of the factors overwrites S
    bound = np.multiply(tiny, np.diagonal(covs, axis1=-2, axis2=-1).reshape(-1, p).T,
                        out=np.empty_like(y))
    # the factors column by column: cols[i, j] = L[j, i] across the stack
    cols = covs.reshape(p, p, -1)
    cols[...] = np.linalg.cholesky(covs).reshape(-1, p, p).T
    diag_l = cols.reshape(p * p, -1)[:: p + 1]
    singular = (diag_l * diag_l <= bound).any(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        _forward_substitute(cols, y)
        # Both sums run along contiguous rows of length p: from p = 8 on numpy
        # sums such a row in unrolled partial sums, and a strided axis in order.
        parts = np.empty((2,) + y.shape[::-1])
        np.log(diag_l.T, out=parts[0])
        np.multiply(y.T, y.T, out=parts[1])
        sums = parts.sum(axis=-1)
        terms = 2.0 * sums[0] + sums[1]
    return terms.reshape(shape), singular.reshape(shape)


def _score_rows(covs: np.ndarray, errors: np.ndarray, total: np.ndarray, tiny: float):
    """Add ln det S + |L^{-1} e|^2 of each stashed row to ``total``, in row
    order, from one Cholesky call on the (R, G, p, p) stack ``covs``, which
    it overwrites (see ``_terms``), and the (R, G, p) stack ``errors``.

    Returns None, or (row, decay, singular) of the first term in row-major
    order whose covariance is singular (see the module docstring) or after
    which the sum overflows float64, with ``total`` then left as it was.
    """
    try:
        terms, singular = _terms(covs, errors, tiny)
    except np.linalg.LinAlgError:
        # cold path: one covariance at a time; a failed factorization is singular
        terms = np.zeros(covs.shape[:2])
        singular = np.ones(covs.shape[:2], dtype=bool)
        for i, k in np.ndindex(covs.shape[:2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                terms[i, k], singular[i, k] = _terms(covs[i, k], errors[i, k], tiny)
    # the sums after each row, added in row order as ``total += row`` would
    terms[0] += total
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.accumulate(terms, axis=0)
    failed = singular | ~np.isfinite(sums)
    if failed.any():
        i = int(np.argmax(failed.any(axis=1)))
        k = int(np.argmax(failed[i]))
        return i, k, bool(singular[i, k])
    total[:] = sums[-1]
    return None


def _score_block(mat: np.ndarray, alphas: np.ndarray, burn_in: int):
    """Sum of ln det S_{t-1} + e^T S_{t-1}^{-1} e over t > burn_in, per decay.

    Returns the (G,) sums and None, or, at the first row with a singular
    covariance (see the module docstring) or an overflowing sum, partial sums
    and (t, lowest failing index into ``alphas``, singular).
    The rows run in blocks of at most ``_ROW_BLOCK_BYTES`` of covariances.
    The mean and covariance recursions still advance one row at a time with
    ``ewm_update``'s elementwise arithmetic.  The terms that do not feed back,
    (1 - alpha) x_t and the rank-one updates, are formed for the whole block
    at once, each in the slot that its row's sum goes to; each row then adds
    alpha m_{t-1} and alpha S_{t-1} from one scratch slot.  IEEE addition
    commutes, so every sum has the bits of ewm_update's.  Finite data whose
    moments overflow float64 raise OverflowError, without a numpy warning,
    before the block is scored.
    """
    n, p = mat.shape
    g = alphas.shape[0]
    tiny = p * np.finfo(np.float64).eps
    # alpha at the full shape of a slot, so that no per-row operation broadcasts
    a = np.repeat(alphas[:, None], p, axis=1)
    a2 = np.repeat(alphas[:, None], p * p, axis=1).reshape(g, p, p)
    size = max(1, min(n - 1, _ROW_BLOCK_BYTES // (8 * g * p * p)))
    # Slot r holds m_{t-1} and S_{t-1} of the block's r-th row t, and slot k
    # the moments after its last row, which the next block starts from.
    means = np.empty((size + 1, g, p))
    covs = np.zeros((size + 1, g, p, p))
    mean_rows, cov_rows = list(means), list(covs)
    means[0] = mat[0]
    total = np.zeros(g)
    for lo in range(1, n, size):
        x = mat[lo : lo + size, None, :]  # rows t = lo + 1, ..., lo + k
        k = x.shape[0]
        first = min(max(0, burn_in - lo), k)  # rows r >= first are scored
        with np.errstate(over="ignore", invalid="ignore"):
            # step holds 1 - alpha, then serves as the scratch slot
            step = 1.0 - a
            np.multiply(x, step, out=means[1 : k + 1])
            for r in range(k):
                np.multiply(mean_rows[r], a, out=step)
                mean_rows[r + 1] += step
            d = x - means[1 : k + 1]
            step = 1.0 - a2
            np.multiply(d[..., :, None], d[..., None, :], out=covs[1 : k + 1])
            covs[1 : k + 1] *= step
            for r in range(k):
                np.multiply(cov_rows[r], a2, out=step)
                cov_rows[r + 1] += step
            del step  # freed before the block's covariances are factored
            errors = x[first:] - means[first:k]
        # a non-finite entry persists through the recursion, so the block's
        # moments are finite if its last covariance is
        if not np.isfinite(covs[k]).all():
            t = lo + next(r for r in range(1, k + 1) if not np.isfinite(covs[r]).all())
            raise overflow_error(f"observation {t}: moving covariance", mat[t - 1])
        if first < k:
            failure = _score_rows(covs[first:k], errors, total, tiny)
            if failure is not None:
                return total, (lo + 1 + first + failure[0], *failure[1:])
        covs[0] = covs[k]
        means[0] = means[k]
    return total, None


def _loglik_curve(mat: np.ndarray, grid: np.ndarray, burn_in: int) -> np.ndarray:
    """ln L for every decay of a validated grid, in blocks of at most
    ``_GRID_BLOCK_BYTES``.  On failure raises for the earliest failing t and,
    among the decays failing there, the lowest grid index."""
    p = mat.shape[1]
    size = max(1, _GRID_BLOCK_BYTES // (4 * 8 * p * p))
    curve = np.empty(grid.shape[0])
    failure = None
    for lo in range(0, grid.shape[0], size):
        # after a failure at t only an earlier one can replace it, and a later
        # block fails at the same t with a higher index, so stop before t
        rows = mat if failure is None else mat[: failure[0] - 1]
        total, block_failure = _score_block(rows, grid[lo : lo + size], burn_in)
        if block_failure is not None:
            t, index, singular = block_failure
            failure = (t, lo + index, singular)
        curve[lo : lo + size] = -0.5 * total
    if failure is None:
        return curve
    t, index, singular = failure
    alpha = float(grid[index])
    if singular:
        raise SingularCovarianceError(t, alpha, p)
    raise OverflowError(
        f"log-likelihood overflows float64 at observation t={t} (alpha={alpha}): the terms "
        "e^T S^-1 e of the prediction errors e = x_t - m_(t-1) sum past 1.8e308, which no "
        "rescaling of the data changes"
    )


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
    construction.  A burn_in of n or more leaves no term and raises
    ValueError.  Factorizations are symmetric (Cholesky): ln det S is twice
    the sum of the logs of the factor's diagonal, and the quadratic term is
    |L^{-1} e|^2.  A covariance that is singular to working precision (the
    factorization fails, or a pivot diag(L)_i^2 is at most p eps S_ii)
    raises SingularCovarianceError, carrying the observation ``t`` and the
    decay ``alpha``, rather than regularizing silently: a ridge term would
    bias the fitted decay.  A sum that overflows float64 raises
    OverflowError, naming the observation and decay, rather than
    returning -inf.

    This is ``estimate_alpha``'s grid computation with a one-value grid, so
    ``estimate_alpha(x, grid)[1][i] == ewm_loglik(x, grid[i])`` bit for bit.
    """
    mat = as_matrix(x, "X")
    burn_in = _check_burn_in(burn_in, *mat.shape)
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
    over the rows (see ``ewm_loglik``); if any covariance is singular or any
    sum overflows, the error names the earliest failing observation and,
    among the decays that fail there, the one with the lowest grid index.
    Finite data whose moments overflow float64 raise OverflowError naming
    the observation, ahead of any singular covariance in its block of rows.
    """
    mat = as_matrix(x, "X")
    grid = default_alpha_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 1:
        raise ValueError("grid must be a non-empty 1-d array of decay values")
    if not np.all((grid > 0.0) & (grid < 1.0)):  # NaN fails both tests
        raise ValueError("grid values must lie strictly between 0 and 1")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be sorted in ascending order")
    curve = _loglik_curve(mat, grid, _check_burn_in(burn_in, *mat.shape))
    best = int(np.argmax(curve))
    return float(grid[best]), curve
