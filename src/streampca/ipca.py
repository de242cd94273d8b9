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
from .refine import DivergenceError, RefineDiagnostics, _check_controls, refine_to_convergence

__all__ = ["IteratedPCA"]


def _align_signs(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip columns of ``vectors`` whose dot with the same column of
    ``reference`` is negative.  Zero dots are left alone."""
    out = vectors.copy()
    flip = np.einsum("ij,ij->j", reference, out) < 0.0
    out[:, flip] *= -1.0
    return out


class IteratedPCA:
    """Refittable full-basis PCA.

    Parameters
    ----------
    tol, max_iter_count:
        Convergence controls handed to the eigenbasis refinement on warm
        starts (see :func:`streampca.refine.refine_to_convergence`); checked
        here, so a bad value fails before the first fit.

    Attributes (set by ``fit``)
    ---------------------------
    means_ : per-feature centering means of the most recent chunk
    components_ : (p, p) eigenvector matrix, one component per column
    explained_variance_ : eigenvalues paired with the columns, non-increasing
    fit_count_ : number of completed fits
    last_fit_diagnostics_ : RefineDiagnostics of the last warm-started fit,
        None when the last fit used the direct eigensolver
    """

    def __init__(self, tol: float = 1e-6, max_iter_count: int | None = None):
        _check_controls(tol, max_iter_count)
        self.tol = tol
        self.max_iter_count = max_iter_count
        self.means_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.fit_count_: int = 0
        self.last_fit_diagnostics_: RefineDiagnostics | None = None

    @property
    def fitted(self) -> bool:
        return self.fit_count_ > 0

    def _check_columns(self, x: np.ndarray) -> None:
        p = self.components_.shape[0]
        if x.shape[1] != p:
            raise ValueError(
                f"X has {x.shape[1]} columns but the model was fitted with {p}"
            )

    def fit(self, x, reseed: bool = False) -> "IteratedPCA":
        """Fit on one chunk of observations (rows).

        Warm-started fits refine the previous eigenbasis on this chunk's
        covariance.  If the refinement diverges the fit fails loudly; passing
        ``reseed=True`` instead restarts from a fresh eigendecomposition with
        column signs aligned to the previous basis.  A silent fallback would
        reintroduce the very sign discontinuities warm starting exists to
        prevent, so it is opt-in.
        """
        x = as_matrix(x, "X")
        if self.fitted:
            self._check_columns(x)
        means, cov = sample_covariance(x)
        diagnostics: RefineDiagnostics | None = None
        if not self.fitted:
            basis = jacobi_eigh(cov)
            vectors, values = basis.vectors, basis.values
        else:
            try:
                vectors, diagnostics = refine_to_convergence(
                    cov, self.components_, tol=self.tol, max_iter_count=self.max_iter_count
                )
                values = diagnostics.eigenvalues
            except DivergenceError as err:
                if not reseed:
                    raise DivergenceError(
                        f"{err}; refit this chunk with reseed=True to restart "
                        "from a fresh eigendecomposition"
                    ) from err
                basis = jacobi_eigh(cov)
                vectors = _align_signs(basis.vectors, self.components_)
                values = basis.values
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
        self._check_columns(x)
        return (x - self.means_) @ self.components_

    def fit_transform(self, x, reseed: bool = False) -> np.ndarray:
        """fit followed by transform on the same chunk."""
        self.fit(x, reseed=reseed)
        return self.transform(x)
