import numpy as np
import pytest


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def well_separated_symmetric(dim, seed, min_gap=1.0):
    """Random symmetric matrix whose consecutive eigengaps are >= ~min_gap.

    Spectrum: jittered integer ladder min_gap * (dim, dim-1, ..., 1), rotated
    by a seeded random orthogonal basis.  Returns (matrix, eigenvalues desc).
    """
    rng = np.random.default_rng(seed)
    values = min_gap * np.arange(dim, 0, -1, dtype=float) + rng.uniform(0.0, 0.3, dim)
    values = -np.sort(-values)
    rot = random_orthogonal(dim, rng)
    a = (rot * values) @ rot.T
    return (a + a.T) / 2.0, values


def frobenius_perturbation(shape, size, seed):
    """Random matrix with exact Frobenius norm ``size``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape)
    return g * (size / np.sqrt(np.sum(g * g)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def hard_streams(n):
    """Streams whose spectra are hard for the refinement, by name: iid at
    p = 6 (near-isotropic), a geometric ratio 2 at p = 9, two strong factors
    over a tight cluster of six noise eigenvalues near 1e-8 of the norm, a
    duplicated column and a constant column (each an exact zero eigenvalue)."""
    rng = np.random.default_rng(0)
    iid = rng.standard_normal((n, 6))
    ratio2 = rng.standard_normal((n, 9)) @ np.diag(2.0 ** np.arange(4.0, -0.5, -0.5))
    ratio2 = ratio2 @ random_orthogonal(9, rng)
    factors = (rng.standard_normal((n, 2)) * [10.0, 7.0]) @ random_orthogonal(8, rng)[:2]
    constant = iid.copy()
    constant[:, 2] = 3.0
    return {
        "iid": iid,
        "ratio-2": ratio2,
        "clustered": factors + 1e-3 * rng.standard_normal((n, 8)),
        "duplicated-column": np.column_stack([iid[:, :5], iid[:, 0]]),
        "constant-column": constant,
    }


HARD_STREAMS = list(hard_streams(2))


def record_refinements(monkeypatch, module):
    """Replace ``module.refine_to_convergence`` by a wrapper that appends
    (A, returned basis, diagnostics) of every call to the list returned."""
    calls = []
    real = module.refine_to_convergence

    def recording(a, xhat):
        basis, diagnostics = real(a, xhat)
        calls.append((np.array(a), basis, diagnostics))
        return basis, diagnostics

    monkeypatch.setattr(module, "refine_to_convergence", recording)
    return calls


def worst_relative_residual(calls):
    """The largest ||A V - V diag(lambda)||_F / ||A||_F over recorded calls;
    every call must have stopped at its tolerance, not at its step cap."""
    worst = 0.0
    for a, v, diagnostics in calls:
        assert not diagnostics.truncated
        residual = np.linalg.norm(a @ v - v * diagnostics.eigenvalues)
        worst = max(worst, residual / max(np.linalg.norm(a), np.finfo(float).tiny))
    return worst
