"""Seeded synthetic observation generators for experiments and tests.

All generators are deterministic functions of their arguments: the same seed
always yields bit-identical data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stationary_gaussian",
    "regime_switch",
    "volatility_cluster",
    "random_rotation",
    "well_separated_covariance",
]


# Largest condition number of a generator's covariance.  An uncapped spectrum
# ratio**(p-1) cannot be Cholesky-factored in double precision once it nears
# 1e16: with ratio 3, stationary_gaussian(n, p, seed=0) raised LinAlgError
# from p = 37.
# The cap leaves ratio 3 unchanged up to p = 26 and ratio 2 up to p = 40.
KAPPA_MAX = 1e12


def _capped_ratio(p: int, ratio: float) -> float:
    """``ratio``, shrunk if needed so that ratio**(p-1) <= KAPPA_MAX."""
    if p == 1:
        return ratio
    return min(ratio, KAPPA_MAX ** (1.0 / (p - 1)))


def random_rotation(p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix (QR of a Gaussian, signs pinned)."""
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def well_separated_covariance(p: int, seed: int, ratio: float = 3.0) -> np.ndarray:
    """Random SPD matrix with a geometric spectrum ratio**(p-1), ..., ratio, 1.

    The generous eigengaps make eigenvector estimates stable in moderate
    samples, which is what the chunked-PCA experiments need.
    """
    rng = np.random.default_rng(seed)
    spectrum = np.power(ratio, np.arange(p - 1, -1, -1, dtype=np.float64))
    rot = random_rotation(p, rng)
    cov = (rot * spectrum) @ rot.T
    return (cov + cov.T) / 2.0


def _draw(n: int, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    basis = np.linalg.cholesky(cov)
    return rng.standard_normal((n, cov.shape[0])) @ basis.T


def stationary_gaussian(n: int, p: int, seed: int = 0) -> np.ndarray:
    """n i.i.d. draws from a fixed seeded covariance with well-separated spectrum
    (ratio 3 between eigenvalues, less above p = 26: see ``KAPPA_MAX``)."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    rng = np.random.default_rng(seed)
    return _draw(n, well_separated_covariance(p, seed, _capped_ratio(p, 3.0)), rng)


def regime_switch(
    n: int,
    p: int,
    switch_points: tuple[int, ...] | list[int],
    seed: int = 0,
    regime_seeds: list[int] | None = None,
    scale_step: float = 2.0,
) -> np.ndarray:
    """Piecewise-stationary Gaussian data.

    ``switch_points`` are row indices where a new regime begins; regime k uses
    a covariance built from ``regime_seeds[k]`` (default: seed + k + 1) scaled
    by ``scale_step**k``, so consecutive regimes differ in rotation and, for
    scale_step != 1, in overall size.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    points = sorted(int(s) for s in switch_points)
    if any(s <= 0 or s >= n for s in points):
        raise ValueError(f"switch points must lie strictly inside (0, {n})")
    if len(set(points)) != len(points):
        raise ValueError("switch points must be distinct")
    bounds = [0, *points, n]
    if regime_seeds is None:
        regime_seeds = [seed + k + 1 for k in range(len(bounds) - 1)]
    if len(regime_seeds) != len(bounds) - 1:
        raise ValueError(
            f"expected {len(bounds) - 1} regime seeds (one per segment), "
            f"got {len(regime_seeds)}"
        )
    rng = np.random.default_rng(seed)
    parts = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        cov = (float(scale_step) ** k) * well_separated_covariance(
            p, regime_seeds[k], _capped_ratio(p, 3.0)
        )
        parts.append(_draw(hi - lo, cov, rng))
    return np.vstack(parts)


def volatility_cluster(
    n: int, p: int, persistence: float = 0.97, seed: int = 0
) -> np.ndarray:
    """Gaussian draws modulated by a common AR(1) log-volatility process.

    h_t = persistence * h_{t-1} + sigma_eta * eta_t with stationary standard
    deviation 0.75, x_t = exp(h_t) * L z_t.  High persistence groups large
    magnitudes together (volatility clustering).
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    persistence = float(persistence)
    if not 0.0 <= persistence < 1.0:
        raise ValueError(f"persistence must lie in [0, 1), got {persistence}")
    rng = np.random.default_rng(seed)
    sigma_h = 0.75
    sigma_eta = sigma_h * np.sqrt(1.0 - persistence**2)
    h = np.empty(n)
    h[0] = sigma_h * rng.standard_normal()
    eta = rng.standard_normal(n)
    for t in range(1, n):
        h[t] = persistence * h[t - 1] + sigma_eta * eta[t]
    base = _draw(n, well_separated_covariance(p, seed, _capped_ratio(p, 2.0)), rng)
    return base * np.exp(h)[:, None]
