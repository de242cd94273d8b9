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


def yield_curve_changes(n=1500, scale=1.0):
    """Daily changes of a 10-tenor yield curve in basis points times ``scale``
    (1e-4 gives decimal units): Nelson-Siegel level, slope and curvature
    loadings [1, s, s - e^(-tau/1.5)], s = (1 - e^(-tau/1.5)) / (tau/1.5),
    with factor standard deviations 6, 4 and 2 bp, plus 0.01 bp of noise per
    tenor; the factors are drawn first, then the noise."""
    tenors = np.array([0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0])
    decay = np.exp(-tenors / 1.5)
    slope = (1.0 - decay) / (tenors / 1.5)
    loadings = np.stack([np.ones_like(tenors), slope, slope - decay])
    rng = np.random.default_rng(0)
    factors = rng.standard_normal((n, 3)) * [6.0, 4.0, 2.0]
    noise = 0.01 * rng.standard_normal((n, tenors.size))
    return (factors @ loadings + noise) * scale


def market_returns():
    """1000 daily returns of 20 assets on three factors, drawn from
    ``default_rng(0)`` in this order: market loadings 1 + 0.3 N(0, 1), two
    more rows of loadings 0.5 N(0, 1), factors with standard deviations 1 %,
    0.5 % and 0.3 %, then 0.2 % of idiosyncratic noise."""
    rng = np.random.default_rng(0)
    loadings = np.vstack([1.0 + 0.3 * rng.standard_normal(20), 0.5 * rng.standard_normal((2, 20))])
    factors = rng.standard_normal((1000, 3)) * [0.01, 0.005, 0.003]
    return factors @ loadings + 0.002 * rng.standard_normal((1000, 20))


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
