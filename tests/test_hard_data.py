"""Certified refinement on hard data.

Near-isotropic, moderate-gap and clustered spectra, and the exact zero
eigenvalue of a duplicated or constant column, through every model: each
warm chunk of ``IteratedPCA`` and each row of ``EwmPCA``, seeded or pure
online from the identity, must come back with an eigen-residual
||A V - V diag(lambda)||_F <= 1e-10 ||A||_F and orthonormal columns,
||V^T V - I||_F <= 1e-10.
``test_ewmpca.py::test_wide_input_seeds_from_p_plus_one_rows`` checks the
same of ``add_all`` at p = 100.
"""

import numpy as np
import pytest

from streampca import ewmpca, ipca
from streampca.ewmpca import EwmPCA, seed_initial_basis
from streampca.ipca import IteratedPCA

from conftest import HARD_STREAMS, hard_streams, record_refinements, worst_relative_residual

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
