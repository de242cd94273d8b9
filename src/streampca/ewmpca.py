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
matrix.  A model starts from ``initial_basis``, or else from the identity;
``seed_initial_basis`` computes a start from the rows it is given, e.g. the
head of a stream.

Each refinement is certified, with at most one Jacobi rotation of S per row
(:func:`streampca.refine.refine_to_convergence`), so pure online mode
converges from the identity, a false fixed point of most covariances.
"""

from __future__ import annotations

import numpy as np

from .ewmstats import EwmState, ewm_init, ewm_update, _check_alpha
from .linalg import as_matrix, jacobi_eigh, sample_covariance
from .refine import RecoveryError, _check_start, refine_to_convergence

__all__ = ["EwmPCA", "seed_initial_basis"]


def seed_initial_basis(x) -> np.ndarray:
    """Initial eigenbasis from the sample covariance of all rows of ``x``.

    Needs at least p + 1 rows so the covariance can have full rank.  Column
    signs are ``jacobi_eigh``'s, pinned the same way as a first PCA fit.  An
    overflow or eigensolver failure names the rows read (``seed rows 1-n: ``).
    """
    arr = as_matrix(x, "x")
    n, p = arr.shape
    if n < p + 1:
        raise ValueError(
            f"need at least p + 1 = {p + 1} rows to seed an initial basis, got {n}"
        )
    try:
        _, cov = sample_covariance(arr)
        return jacobi_eigh(cov).vectors
    except (OverflowError, RuntimeError) as err:
        raise type(err)(f"seed rows 1-{n}: {err}") from err


class EwmPCA:
    """Streaming PCA against an exponentially weighted moving covariance.

    Parameters
    ----------
    alpha : decay of the moving moments, strictly inside (0, 1)
    initial_basis : optional (p, p) start, e.g. from :func:`seed_initial_basis`,
        with ||I - W^T W||_F <= ``refine.MAX_DRIFT`` (the kernel's start gate);
        when omitted, the first observation sets the identity

    Each observation's refinement stops by the kernel's fixed rule
    (:func:`streampca.refine.refine_to_convergence`); no caller sets it.

    Attributes
    ----------
    iterations_total, iterations_min, iterations_max : refinement steps
        summed over the observations after the first, and the fewest and
        most that one of them took (None before the second observation);
        :meth:`iteration_summary` adds their count and mean
    truncation_count : observations whose refinement stopped, certified, at
        its fixed step cap (see :func:`streampca.refine.refine_to_convergence`)
    fallback_count : observations whose refinement took its Jacobi rotation
    """

    def __init__(self, alpha: float, initial_basis=None):
        self.alpha = _check_alpha(alpha)
        self._basis: np.ndarray | None = None
        if initial_basis is not None:
            basis = as_matrix(initial_basis, "initial_basis")
            if basis.shape[0] != basis.shape[1]:
                raise ValueError("initial basis must be square")
            _check_start(basis, "initial basis")
            self._basis = basis.copy(order="F")
        self._ewm: EwmState | None = None
        self._eigenvalues: np.ndarray | None = None
        self.iterations_total = 0
        self.iterations_min: int | None = None
        self.iterations_max: int | None = None
        self.truncation_count = 0
        self.fallback_count = 0

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

    def iteration_summary(self) -> dict:
        """Refinements so far (one per observation after the first), and the
        fewest, most and mean steps per refinement (None before the first)."""
        refinements = max(0, self.observation_count - 1)
        return {
            "refinements": refinements,
            "min": self.iterations_min,
            "max": self.iterations_max,
            "mean": self.iterations_total / refinements if refinements else None,
        }

    def add(self, x) -> np.ndarray:
        """Consume one observation, return its principal-component row.

        The first observation initializes the moving moments and returns a
        zero vector (there is no covariance to project against yet).
        """
        count = self.observation_count + 1
        # ewm_init and ewm_update check x; every error names the observation
        try:
            if self._ewm is None:
                state = ewm_init(x, self.alpha)
                p = state.mean.shape[0]
                if self._basis is None:
                    # No information yet: the identity is the canonical
                    # orthonormal guess for pure online streams.
                    self._basis = np.eye(p)
                elif self._basis.shape[0] != p:
                    raise ValueError(
                        f"observation has dimension {p}, basis has {self._basis.shape[0]}"
                    )
                self._ewm = state
                return np.zeros(p)
            state = ewm_update(self._ewm, x)
            basis, diagnostics = refine_to_convergence(state.cov, self._basis)
        except (ValueError, OverflowError, RecoveryError) as err:
            raise type(err)(f"observation {count}: {err}") from err
        centered = x - state.mean
        self._ewm = state
        self._basis = basis
        self._eigenvalues = diagnostics.eigenvalues
        steps = diagnostics.iterations
        self.iterations_total += steps
        if count == 2:  # the first refinement
            self.iterations_min = self.iterations_max = steps
        elif steps < self.iterations_min:
            self.iterations_min = steps
        elif steps > self.iterations_max:
            self.iterations_max = steps
        self.truncation_count += diagnostics.truncated
        self.fallback_count += diagnostics.fallback
        return centered @ basis

    def add_all(self, x) -> np.ndarray:
        """Fold ``add`` over the rows of ``x``; returns the (n, p) component series.

        Equivalent to calling ``add`` row by row on the same state.  An empty
        input returns an empty series and leaves the state untouched, and so
        does a non-finite entry, whose ValueError names its observation.
        """
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError(f"X must be 2-d with at least one column, got shape {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = self.observation_count + 1 + int(finite.all(axis=1).argmin())
            raise ValueError(f"observation {bad}: x contains non-finite entries")
        out = np.empty(arr.shape)
        for i, row in enumerate(arr):
            out[i] = self.add(row)
        return out
