"""Per-observation PCA on an exponentially weighted moving covariance.

Each arriving observation updates the running mean and covariance
(:mod:`streampca.ewmstats`), the eigenbasis of the updated covariance is
re-refined starting from the previous step's basis, and the centred
observation is projected onto it.  The first observation only initializes the
state and yields an all-zero component row; treat it as burn-in.  Because the
basis tracks the data, component rows are uncorrelated locally rather than on
average.

Two entry points, freely interleavable: ``add`` consumes a single observation
and returns its component row; ``add_all`` folds ``add`` over the rows of a
matrix.  On a fresh, unseeded model ``add_all`` first seeds the basis from
the sample covariance of its leading rows (up to 100), then processes every
row from the beginning so the output stays row-aligned with the input.
"""

from __future__ import annotations

import numpy as np

from .ewmstats import EwmState, ewm_init, ewm_update, _check_alpha
from .linalg import (
    as_matrix,
    as_vector,
    frobenius_norm,
    jacobi_eigh,
    sample_covariance,
)
from .refine import DivergenceError, _check_controls, refine_to_convergence

__all__ = ["EwmPCA", "seed_initial_basis", "DEFAULT_SEED_ROWS"]

# Head length used to seed the initial basis in batch mode, and the default
# span of the warm-up iteration cap.
DEFAULT_SEED_ROWS = 100

# During warm-up the moving covariance is rank-deficient; its zero-eigenvalue
# cluster keeps refinement steps bounded but can stall short of tol, so the
# step count is capped while no user cap is set.
WARMUP_MAX_ITER = 20


def seed_initial_basis(x_head) -> np.ndarray:
    """Initial eigenbasis from the sample covariance of the leading rows.

    Needs at least p + 1 rows so the covariance can have full rank.  Column
    signs are ``jacobi_eigh``'s, pinned the same way as a first PCA fit.
    """
    head = as_matrix(x_head, "x_head")
    n, p = head.shape
    if n < p + 1:
        raise ValueError(
            f"need at least p + 1 = {p + 1} rows to seed an initial basis, got {n}"
        )
    _, cov = sample_covariance(head)
    return jacobi_eigh(cov).vectors


class EwmPCA:
    """Streaming PCA against an exponentially weighted moving covariance.

    Parameters
    ----------
    alpha : decay of the moving moments, strictly inside (0, 1)
    initial_basis : optional (p, p) near-orthonormal starting basis; when
        omitted, batch mode seeds from the leading rows and pure online mode
        starts from the identity
    tol, max_iter_count : refinement controls per observation, checked here
    warmup_rows : observations during which refinement is capped at
        WARMUP_MAX_ITER steps (only when ``max_iter_count`` is None)

    Attributes
    ----------
    iteration_counts : refinement steps taken for each observation after
        the first
    truncation_count : observations whose refinement stopped at its step
        cap (see :func:`streampca.refine.refine_to_convergence`)
    """

    def __init__(
        self,
        alpha: float,
        initial_basis=None,
        tol: float = 1e-6,
        max_iter_count: int | None = None,
        warmup_rows: int = DEFAULT_SEED_ROWS,
    ):
        self.alpha = _check_alpha(alpha)
        _check_controls(tol, max_iter_count)
        self.tol = tol
        self.max_iter_count = max_iter_count
        self.warmup_rows = int(warmup_rows)
        self._basis: np.ndarray | None = None
        if initial_basis is not None:
            basis = as_matrix(initial_basis, "initial_basis")
            if basis.shape[0] != basis.shape[1]:
                raise ValueError("initial basis must be square")
            drift = frobenius_norm(basis.T @ basis - np.eye(basis.shape[0]))
            if drift > 1e-3:
                raise ValueError(
                    f"initial basis is not near-orthonormal (||W^T W - I||_F = {drift:.3e})"
                )
            self._basis = basis.copy()
        self._ewm: EwmState | None = None
        self._eigenvalues: np.ndarray | None = None
        self.iteration_counts: list[int] = []
        self.truncation_count = 0

    @property
    def basis(self) -> np.ndarray | None:
        """Current eigenvector estimate (columns), or None before seeding."""
        return self._basis

    @property
    def state(self) -> EwmState | None:
        """Running moving moments, or None before the first observation."""
        return self._ewm

    @property
    def observation_count(self) -> int:
        return 0 if self._ewm is None else self._ewm.count

    def eigenvalues(self) -> np.ndarray | None:
        """Eigenvalue estimates of the current basis on the current covariance,
        as the last refinement returned them; None before the second
        observation."""
        return self._eigenvalues

    def add(self, x) -> np.ndarray:
        """Consume one observation, return its principal-component row.

        The first observation initializes the moving moments and returns a
        zero vector (there is no covariance to project against yet).
        """
        x = as_vector(x, "x")
        if self._ewm is None:
            p = x.shape[0]
            if self._basis is None:
                # No information yet: the identity is the canonical
                # orthonormal guess for pure online streams.
                self._basis = np.eye(p)
            elif self._basis.shape[0] != p:
                raise ValueError(
                    f"observation has dimension {p}, basis has {self._basis.shape[0]}"
                )
            self._ewm = ewm_init(x, self.alpha)
            return np.zeros(p)
        state = ewm_update(self._ewm, x)
        centered = x - state.mean
        cap = self.max_iter_count
        if cap is None and state.count <= self.warmup_rows:
            cap = WARMUP_MAX_ITER
        try:
            basis, diagnostics = refine_to_convergence(
                state.cov, self._basis, tol=self.tol, max_iter_count=cap
            )
        except DivergenceError as err:
            raise DivergenceError(
                f"eigenbasis refinement diverged at observation {state.count}: {err}"
            ) from err
        self._ewm = state
        self._basis = basis
        self._eigenvalues = diagnostics.eigenvalues
        self.iteration_counts.append(diagnostics.iterations)
        self.truncation_count += diagnostics.truncated
        return centered @ basis

    def add_all(self, x) -> np.ndarray:
        """Fold ``add`` over the rows of ``x``; returns the (n, p) component series.

        Equivalent to calling ``add`` row by row on the same state.  An empty
        input returns an empty series and leaves the state untouched.
        """
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError(f"X must be 2-d with at least one column, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("X contains non-finite entries")
        n, p = arr.shape
        if n > 0 and self._ewm is None and self._basis is None:
            head = arr[: min(DEFAULT_SEED_ROWS, n)]
            if head.shape[0] >= p + 1:
                self._basis = seed_initial_basis(head)
        out = np.empty((n, p))
        for i in range(n):
            out[i] = self.add(arr[i])
        return out
