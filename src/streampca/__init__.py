"""Streaming PCA built on iterative eigenbasis refinement.

Two estimators share one refinement kernel: :class:`IteratedPCA` refits PCA
chunk by chunk, warm-starting each eigenbasis from the previous fit so
component identity and sign survive across chunks, and :class:`EwmPCA` tracks
an exponentially weighted moving covariance and re-refines its eigenbasis at
every observation.
"""

from .ewmpca import EwmPCA, seed_initial_basis
from .ewmstats import (
    EwmState,
    SingularCovarianceError,
    default_alpha_grid,
    estimate_alpha,
    ewm_init,
    ewm_loglik,
    ewm_update,
)
from .ipca import IteratedPCA
from .linalg import (
    EigenBasis,
    fix_column_signs,
    frobenius_norm,
    jacobi_eigh,
    sample_covariance,
)
from .refine import (
    RecoveryError,
    RefineDiagnostics,
    estimate_eigenvalues,
    refine_step,
    refine_to_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "EigenBasis",
    "EwmPCA",
    "EwmState",
    "IteratedPCA",
    "RecoveryError",
    "RefineDiagnostics",
    "SingularCovarianceError",
    "default_alpha_grid",
    "estimate_alpha",
    "estimate_eigenvalues",
    "ewm_init",
    "ewm_loglik",
    "ewm_update",
    "fix_column_signs",
    "frobenius_norm",
    "jacobi_eigh",
    "refine_step",
    "refine_to_convergence",
    "sample_covariance",
    "seed_initial_basis",
]
