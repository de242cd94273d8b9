"""Iterative refinement of approximate eigenbases of real symmetric matrices.

Given symmetric A and an approximate eigenvector matrix Xhat (columns), each
step forms

    R = I - Xhat^T Xhat          (orthonormality residual)
    S = Xhat^T A Xhat            (near-diagonal near the true basis)
    lambda_i = s_ii / (1 - r_ii)

and a correction E whose (i, j) entry uses the eigengap formula
(s_ij + lambda_j r_ij) / (lambda_j - lambda_i) whenever the gap
|lambda_i - lambda_j| clears the safety threshold

    delta = 2 (||S - D|| + ||A|| ||R||),        D = diag(lambda),

falling back to r_ij / 2 for clustered pairs (the diagonal always falls back:
its gap is zero).  The next iterate is Xhat + Xhat @ E.  Started close enough
to the true basis, the iteration converges monotonically and quadratically;
see T. Ogita and K. Aishima, "Iterative refinement for symmetric eigenvalue
decomposition", Japan J. Indust. Appl. Math. 35 (2018).

Norms default to Frobenius, a cheap upper bound on the spectral norm used in
the original analysis.  Overestimating delta only routes more pairs to the
conservative r_ij/2 branch, and in the stopping test Frobenius is the
stricter criterion.  Pass a different ``norm`` callable to swap in, e.g., a
power-iteration 2-norm estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm

__all__ = [
    "DivergenceError",
    "RefineDiagnostics",
    "estimate_eigenvalues",
    "refine_step",
    "refine_to_convergence",
]

# Step norms growing past this multiple of the first step norm abort the loop
# early on inputs outside its convergence region (e.g. a rank-deficient
# covariance fed with a stale basis).
DIVERGENCE_FACTOR = 1e6

# Step cap used when the caller sets none.  Step norms that stay bounded
# without contracting would otherwise neither converge nor trip the
# divergence guard; hitting the cap is reported as ``truncated=True``.
MAX_ITER = 100


class DivergenceError(RuntimeError):
    """Refinement step norms blew up instead of contracting."""


@dataclass(frozen=True)
class RefineDiagnostics:
    """Per-call convergence record.

    ``final_step_norm`` is the norm of the last update; ``truncated`` means the
    iteration cap stopped the loop (the tolerance may not have been reached).
    """

    iterations: int
    final_step_norm: float
    delta_history: tuple[float, ...]
    step_norm_history: tuple[float, ...]
    truncated: bool = False


def _check_pair(a: np.ndarray, xhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if xhat.shape != a.shape:
        raise ValueError(
            f"eigenvector matrix shape {xhat.shape} does not match A shape {a.shape}"
        )
    return a, xhat


def _rayleigh(a: np.ndarray, xhat: np.ndarray, eye: np.ndarray):
    """Unchecked core of :func:`estimate_eigenvalues`: (lambda, R, S) for
    float64 arrays of matching square shape, ``eye`` the identity of that size."""
    r = eye - xhat.T @ xhat
    s = xhat.T @ (a @ xhat)
    denom = 1.0 - r.diagonal()
    bad = np.abs(denom) < 1e-14
    if bad.any():
        raise ValueError(
            "degenerate approximate eigenvector: column "
            f"{int(np.argmax(bad))} has near-zero norm"
        )
    return s.diagonal() / denom, r, s


def estimate_eigenvalues(a, xhat, return_extra: bool = False):
    """Eigenvalue estimates lambda_i = s_ii / (1 - r_ii) for a precomputed basis.

    With ``return_extra`` the residual matrices R = I - Xhat^T Xhat and
    S = Xhat^T A Xhat come back too (they are needed by the refinement step).
    Raises ValueError when some |1 - r_ii| < 1e-14, i.e. a column of Xhat has
    near-zero norm and the quotient is meaningless.
    """
    a, xhat = _check_pair(a, xhat)
    lam, r, s = _rayleigh(a, xhat, np.eye(a.shape[0]))
    if return_extra:
        return lam, r, s
    return lam


def _step(a: np.ndarray, xhat: np.ndarray, eye: np.ndarray, norm_a: float, norm):
    """One unchecked refinement step: (Xhat + Xhat @ E, delta), with
    ``norm_a`` = norm(A) taken once by the caller."""
    lam, r, s = _rayleigh(a, xhat, eye)
    delta = 2.0 * (norm(s - np.diag(lam)) + norm_a * norm(r))
    if not math.isfinite(delta):
        raise ArithmeticError(
            f"non-finite refinement threshold delta={delta}; input blew up"
        )
    gap = lam - lam[:, None]
    wide = np.abs(gap) > delta
    # Dividing only where the gap is wide keeps gap == 0 out of the division.
    e = 0.5 * r
    np.divide(s + lam * r, gap, out=e, where=wide)
    return xhat + xhat @ e, delta


def refine_step(a, xhat, norm=frobenius_norm) -> np.ndarray:
    """One refinement step: returns Xhat + Xhat @ E.

    Exactly orthonormal true eigenvectors are a fixed point (R = 0 and S
    diagonal make every entry of E vanish).
    """
    a, xhat = _check_pair(a, xhat)
    new_x, _ = _step(a, xhat, np.eye(a.shape[0]), norm(a), norm)
    return new_x


def refine_to_convergence(
    a,
    xhat,
    tol: float = 1e-6,
    max_iter_count: int | None = None,
    sort_by_eigenvalues: bool = False,
    norm=frobenius_norm,
) -> tuple[np.ndarray, RefineDiagnostics]:
    """Repeat refinement steps until the update norm drops below ``tol``.

    Stops when ||X' - X|| < tol, or unconditionally once ``max_iter_count``
    steps (MAX_ITER when None) have run; diagnostics then carry
    ``truncated=True`` and the tolerance may not have been reached.  Either
    way the freshly stepped matrix is returned, never the pre-step iterate.
    With ``sort_by_eigenvalues`` the estimated eigenvalues of the final
    iterate are sorted in descending order and its columns reordered to match.

    Raises DivergenceError when a step norm exceeds DIVERGENCE_FACTOR times
    the first step norm: the initial guess is too far off (or the spectrum
    too clustered) for the iteration to contract.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter_count is not None and max_iter_count < 1:
        raise ValueError(f"max_iter_count must be >= 1, got {max_iter_count}")
    a, x = _check_pair(a, xhat)
    cap = MAX_ITER if max_iter_count is None else max_iter_count
    eye = np.eye(a.shape[0])
    norm_a = norm(a)
    deltas: list[float] = []
    steps: list[float] = []
    truncated = False
    while True:
        new_x, delta = _step(a, x, eye, norm_a, norm)
        eps = norm(new_x - x)
        deltas.append(delta)
        steps.append(eps)
        if len(steps) == cap:
            truncated = True
            break
        if eps < tol:
            break
        if eps > DIVERGENCE_FACTOR * steps[0]:
            raise DivergenceError(
                f"refinement diverging: step norm {eps:.3e} exceeds "
                f"{DIVERGENCE_FACTOR:.0e} x first step norm {steps[0]:.3e} "
                f"after {len(steps)} iterations"
            )
        x = new_x
    if sort_by_eigenvalues:
        lam, _, _ = _rayleigh(a, new_x, eye)
        new_x = new_x[:, (-lam).argsort(kind="stable")]
    diagnostics = RefineDiagnostics(
        iterations=len(steps),
        final_step_norm=eps,
        delta_history=tuple(deltas),
        step_norm_history=tuple(steps),
        truncated=truncated,
    )
    return new_x, diagnostics
