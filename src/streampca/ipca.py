"""PCA refitted chunk-to-chunk with a persistent, warm-started eigenbasis.

The first fit eigendecomposes the chunk's sample covariance from scratch and
pins column signs deterministically.  Every later fit starts the eigenvector
iteration from the previous basis, so component order and sign carry over
between chunks instead of being re-randomized by each independent
decomposition.  That continuity is the point: stacking per-chunk scores from
independently fitted PCAs produces spurious sign flips at chunk boundaries.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, jacobi_eigh, sample_covariance
from .refine import RefineDiagnostics, refine_to_convergence

__all__ = ["IteratedPCA"]


class IteratedPCA:
    """Refittable full-basis PCA.

    Warm starts refine the previous eigenbasis by
    :func:`streampca.refine.refine_to_convergence`, whose every stop is
    certified; its stop rule is fixed, so the model takes no parameter.

    Attributes (set by ``fit``)
    ---------------------------
    means_ : per-feature centering means of the most recent chunk
    components_ : (p, p) eigenvector matrix, one component per column
    explained_variance_ : eigenvalues paired with the columns, non-increasing
    fit_count_ : number of completed fits
    last_fit_diagnostics_ : RefineDiagnostics of the last warm-started fit,
        None when the last fit used the direct eigensolver
    """

    def __init__(self):
        self.means_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.fit_count_: int = 0
        self.last_fit_diagnostics_: RefineDiagnostics | None = None

    @property
    def fitted(self) -> bool:
        return self.fit_count_ > 0

    def _check_columns(self, cols: int) -> None:
        p = self.components_.shape[0]
        if cols != p:
            raise ValueError(f"X has {cols} columns but the model was fitted with {p}")

    def fit(self, x) -> "IteratedPCA":
        """Fit on one chunk of observations (rows).

        Warm-started fits refine the previous eigenbasis on this chunk's
        covariance; a failed refinement raises RecoveryError and leaves the
        model as it was.
        """
        means, cov = sample_covariance(x)
        if self.fitted:
            self._check_columns(means.shape[0])
            vectors, diagnostics = refine_to_convergence(cov, self.components_)
            values = diagnostics.eigenvalues
        else:
            basis = jacobi_eigh(cov)
            vectors, values, diagnostics = basis.vectors, basis.values, None
        self.means_ = means
        self.components_ = vectors
        self.explained_variance_ = values
        self.fit_count_ += 1
        self.last_fit_diagnostics_ = diagnostics
        return self

    def transform(self, x) -> np.ndarray:
        """Project rows onto the fitted components: (X - means) @ V."""
        if not self.fitted:
            raise RuntimeError("IteratedPCA.transform called before any fit")
        x = as_matrix(x, "X")
        self._check_columns(x.shape[1])
        return (x - self.means_) @ self.components_

    def fit_transform(self, x) -> np.ndarray:
        """fit followed by transform on the same chunk."""
        self.fit(x)
        return self.transform(x)
