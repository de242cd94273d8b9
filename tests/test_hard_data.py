"""Certified refinement on hard data.

Near-isotropic, moderate-gap and clustered spectra, and the exact zero
eigenvalue of a duplicated or constant column, through every model: each
warm chunk of ``IteratedPCA`` and each row of ``EwmPCA``, seeded or pure
online from the identity, must come back with an eigen-residual
||A V - V diag(lambda)||_F <= 1e-10 ||A||_F and orthonormal columns,
||V^T V - I||_F <= 1e-10.
``test_ewmpca.py::test_wide_input_seeds_from_p_plus_one_rows`` checks the
same of ``add_all`` at p = 100.  Every stop rule is relative to ||A||_F, so
a yield-curve table certifies in decimal units as in basis points, and data
scaled by a power of two give the same bases, bit for bit, down to 2^-400,
where the squares of the unscaled covariance would underflow.
"""

import functools

import numpy as np
import pytest

from streampca import ewmpca, ipca
from streampca.ewmpca import EwmPCA, seed_initial_basis
from streampca.ipca import IteratedPCA

from conftest import (
    HARD_STREAMS,
    hard_streams,
    record_refinements,
    worst_relative_residual,
    yield_curve_changes,
)

CERTIFIED = 1e-10


def worst_drift(calls):
    """The largest ||V^T V - I||_F over recorded calls."""
    return max(np.linalg.norm(v.T @ v - np.eye(v.shape[1])) for _, v, _ in calls)


@pytest.mark.parametrize("name", HARD_STREAMS)
def test_iterated_pca_certifies_every_chunk(monkeypatch, name):
    x = hard_streams(1000)[name]
    calls = record_refinements(monkeypatch, ipca)
    model = IteratedPCA()
    for chunk in np.split(x, 5):
        model.fit(chunk)
    # every warm chunk refined
    assert len(calls) == 4
    assert worst_relative_residual(calls) <= CERTIFIED
    assert worst_drift(calls) <= CERTIFIED


@pytest.mark.parametrize("name", HARD_STREAMS)
def test_seeded_ewmpca_certifies_every_row(monkeypatch, name):
    x = hard_streams(600)[name]
    calls = record_refinements(monkeypatch, ewmpca)
    model = EwmPCA(0.97, initial_basis=seed_initial_basis(x[:100]))
    for row in x:
        model.add(row)
    # every row after the first refined
    assert len(calls) == 599
    assert worst_relative_residual(calls) <= CERTIFIED
    assert worst_drift(calls) <= CERTIFIED


@pytest.mark.parametrize("name", HARD_STREAMS)
def test_pure_online_ewmpca_certifies_every_row_from_the_identity(monkeypatch, name):
    x = hard_streams(600)[name]
    calls = record_refinements(monkeypatch, ewmpca)
    model = EwmPCA(0.97)
    for row in x:
        model.add(row)
    assert len(calls) == 599
    assert worst_relative_residual(calls) <= CERTIFIED
    assert worst_drift(calls) <= CERTIFIED


def test_yield_curve_in_decimal_units_certifies_every_row_and_chunk(monkeypatch):
    x = yield_curve_changes(scale=1e-4)
    ewm_calls = record_refinements(monkeypatch, ewmpca)
    EwmPCA(0.97).add_all(x)
    ipca_calls = record_refinements(monkeypatch, ipca)
    model = IteratedPCA()
    for chunk in np.array_split(x, 4):
        model.fit(chunk)
    assert (len(ewm_calls), len(ipca_calls)) == (1499, 3)
    for calls in (ewm_calls, ipca_calls):
        assert worst_relative_residual(calls) <= CERTIFIED
        assert worst_drift(calls) <= CERTIFIED


SCALED_STREAMS = {
    "clustered": lambda: hard_streams(600)["clustered"],
    "yield-curve": yield_curve_changes,
}


@functools.cache
def unit_runs(name):
    """(EwmPCA(0.97) after ``add_all``, its series, IteratedPCA fits of 4
    chunks) on a stream in its own units."""
    x = SCALED_STREAMS[name]()
    ewm = EwmPCA(0.97)
    series = ewm.add_all(x)
    return ewm, series, chunk_fits(x)


def chunk_fits(x):
    """(components, eigenvalues, diagnostics) after each of 4 chunk fits."""
    model, fits = IteratedPCA(), []
    for chunk in np.array_split(x, 4):
        model.fit(chunk)
        fits.append((model.components_, model.explained_variance_, model.last_fit_diagnostics_))
    return fits


@pytest.mark.parametrize("k", [10, 20, 40, 260, 300, 400])
@pytest.mark.parametrize("name", SCALED_STREAMS)
def test_models_scale_exactly_with_the_data(name, k):
    c = 2.0**-k
    x = c * SCALED_STREAMS[name]()
    ewm, series, fits = unit_runs(name)
    scaled = EwmPCA(0.97)
    assert np.array_equal(scaled.add_all(x) / c, series)
    assert np.array_equal(scaled.basis, ewm.basis)
    assert np.array_equal(scaled.eigenvalues(), c * c * ewm.eigenvalues())
    assert scaled.iteration_summary() == ewm.iteration_summary()
    assert scaled.fallback_count == ewm.fallback_count > 0
    for (v, lam, diag), (unit_v, unit_lam, unit_diag) in zip(chunk_fits(x), fits):
        assert np.array_equal(v, unit_v)
        assert np.array_equal(lam, c * c * unit_lam)
        if diag is not None:
            assert diag.step_norm_history == unit_diag.step_norm_history
            assert diag.fallback == unit_diag.fallback
