import warnings

import numpy as np
import pytest

from streampca.ipca import IteratedPCA
from streampca.linalg import frobenius_norm, jacobi_eigh, sample_covariance
from streampca.refine import estimate_eigenvalues, refine_to_convergence
from streampca.synth import stationary_gaussian, well_separated_covariance

from conftest import random_orthogonal


def diag_4_1_rows():
    """Four rows whose sample covariance is exactly diag(4, 1)."""
    a = np.sqrt(3.0)
    b = np.sqrt(3.0) / 2.0
    return np.array([[a, b], [-a, b], [a, -b], [-a, -b]])


def test_first_fit_diagonal_covariance():
    model = IteratedPCA().fit(diag_4_1_rows())
    assert model.explained_variance_ == pytest.approx([4.0, 1.0], abs=1e-14)
    assert np.allclose(model.components_, np.eye(2), atol=1e-14)
    assert model.fit_count_ == 1
    assert np.array_equal(model.means_, [0.0, 0.0])


def test_first_fit_applies_sign_convention():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((300, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
    model = IteratedPCA().fit(x)
    lead = np.argmax(np.abs(model.components_), axis=0)
    assert np.all(model.components_[lead, np.arange(4)] > 0)


def test_refit_same_distribution_keeps_basis_and_signs():
    # two 20k-row draws from one well-separated covariance: columns agree
    # within 1e-2 radians and no sign flips (measured worst 0.0054 rad)
    for seed in range(4):
        cov = well_separated_covariance(3, seed, ratio=20.0)
        chol = np.linalg.cholesky(cov)
        gen = np.random.default_rng(100 + seed)
        model = IteratedPCA()
        model.fit(gen.standard_normal((20000, 3)) @ chol.T)
        first = model.components_.copy()
        model.fit(gen.standard_normal((20000, 3)) @ chol.T)
        dots = np.einsum("ij,ij->j", first, model.components_)
        assert np.all(dots > 0.0)
        angles = np.arccos(np.clip(np.abs(dots), 0.0, 1.0))
        assert angles.max() <= 1e-2


def test_refit_identical_chunk_is_fixed_point():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((500, 4))
    model = IteratedPCA()
    model.fit(x)
    v1, e1, m1 = model.components_.copy(), model.explained_variance_.copy(), model.means_.copy()
    model.fit(x)
    assert np.max(np.abs(model.components_ - v1)) <= 1e-10
    assert np.max(np.abs(model.explained_variance_ - e1)) <= 1e-10
    assert np.array_equal(model.means_, m1)
    assert model.fit_count_ == 2


def test_orthonormality_after_every_fit():
    rng = np.random.default_rng(6)
    model = IteratedPCA()
    for _ in range(5):
        model.fit(rng.standard_normal((400, 5)))
        v = model.components_
        assert frobenius_norm(v.T @ v - np.eye(5)) <= 1e-6


def test_explained_variance_matches_eigenvalues_sorted():
    rng = np.random.default_rng(7)
    model = IteratedPCA()
    for _ in range(3):
        x = rng.standard_normal((300, 4))
        model.fit(x)
        assert np.all(np.diff(model.explained_variance_) <= 0.0)
        if model.fit_count_ > 1:
            _, cov = sample_covariance(x)
            lam = estimate_eigenvalues(cov, model.components_)
            assert np.array_equal(model.explained_variance_, lam)


# ---------------------------------------------------------------------------
# transform


def test_transform_mean_row_maps_to_zero():
    x = diag_4_1_rows() + np.array([1.0, -2.0])
    model = IteratedPCA().fit(x)
    out = model.transform(model.means_[None, :])
    assert np.max(np.abs(out)) <= 1e-14


def test_transform_identity_basis_zero_means_is_passthrough():
    model = IteratedPCA().fit(diag_4_1_rows())
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 2))
    assert np.allclose(model.transform(x), x, atol=1e-14)


def test_transform_score_variance_equals_explained_variance():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
    model = IteratedPCA().fit(x)
    scores = model.transform(x)
    variances = scores.var(axis=0, ddof=1)
    assert variances == pytest.approx(model.explained_variance_, abs=1e-10)


def test_transform_before_fit_raises():
    with pytest.raises(RuntimeError, match="before any fit"):
        IteratedPCA().transform(np.zeros((2, 2)))


def test_transform_column_mismatch_raises():
    model = IteratedPCA().fit(diag_4_1_rows())
    with pytest.raises(ValueError, match="columns"):
        model.transform(np.zeros((3, 5)))


def test_transform_is_affine_in_rows():
    rng = np.random.default_rng(10)
    model = IteratedPCA().fit(rng.standard_normal((100, 3)))
    x1 = rng.standard_normal((6, 3))
    x2 = rng.standard_normal((6, 3))
    a = 0.3
    lhs = model.transform(a * x1 + (1.0 - a) * x2)
    rhs = a * model.transform(x1) + (1.0 - a) * model.transform(x2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# fit_transform


def test_fit_transform_equals_fit_then_transform():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((80, 3))
    m1 = IteratedPCA()
    z1 = m1.fit_transform(x)
    m2 = IteratedPCA()
    m2.fit(x)
    z2 = m2.transform(x)
    assert np.array_equal(z1, z2)


def test_fit_transform_single_column_is_centered_input_up_to_sign():
    x = np.array([[1.0], [2.0], [4.0], [9.0]])
    z = IteratedPCA().fit_transform(x)
    centered = x - x.mean()
    assert np.allclose(np.abs(z), np.abs(centered), atol=1e-14)


def test_chunked_fit_transform_tracks_whole_sample_pca():
    x = stationary_gaussian(5000, 5, seed=3)
    whole = IteratedPCA().fit_transform(x)
    model = IteratedPCA()
    stacked = np.vstack([model.fit_transform(chunk) for chunk in np.split(x, 5)])
    for j in range(5):
        rho = np.corrcoef(stacked[:, j], whole[:, j])[0, 1]
        assert abs(rho) >= 0.99


# ---------------------------------------------------------------------------
# errors / recovery


def test_fit_column_count_must_stay_fixed():
    model = IteratedPCA().fit(diag_4_1_rows())
    with pytest.raises(ValueError, match="columns"):
        model.fit(np.zeros((10, 3)))


def test_fit_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2 rows"):
        IteratedPCA().fit(np.zeros((1, 3)))


@pytest.mark.parametrize(
    "controls",
    [{"tol": -1.0}, {"tol": 0.0}, {"tol": float("nan")}, {"tol": 1e-6}],
    ids=["tol=-1", "tol=0", "tol=nan", "tol=default"],
)
def test_refinement_controls_checked_when_built(controls):
    # the step tolerance is the kernel's constant: no value is taken, not
    # even the one it holds
    with pytest.raises(TypeError, match="tol"):
        refine_to_convergence(np.eye(2), np.eye(2), **controls)
    with pytest.raises(TypeError, match="tol"):
        IteratedPCA(**controls)


def _stale_fitted_model(orthonormal, seed=12):
    """A fitted model whose basis is the orthonormal factor of a Gaussian draw,
    or 40 times the draw itself, and the next chunk, from the same draws."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, 4))
    model = IteratedPCA().fit(x)
    # a stale basis, or a garbage one that sends refinement off the rails
    if orthonormal:
        model.components_ = random_orthogonal(4, rng)
    else:
        model.components_ = 40.0 * rng.standard_normal((4, 4))
    return model, rng.standard_normal((200, 4))


def test_wild_basis_is_refused():
    model, x = _stale_fitted_model(orthonormal=False)
    before = (model.means_, model.components_, model.explained_variance_)
    # the refinement converges only from a start near an orthonormal basis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^Xhat is not near-orthonormal"):
            model.fit(x)
    # failed fit leaves the model state untouched
    assert model.fit_count_ == 1
    assert all(new is old for new, old in
               zip((model.means_, model.components_, model.explained_variance_), before))


def test_chunk_whose_squares_all_underflow_is_refused():
    # 400 x 3, spectrum (9, 1, 0.09), times 1e-170: every square is subnormal or
    # zero, and the fit used to return components far from the unit-scale ones
    x = np.random.default_rng(0).standard_normal((400, 3)) * [3.0, 1.0, 0.3]
    model = IteratedPCA().fit(x[:200])
    before = (model.means_, model.components_, model.explained_variance_)
    for chunk in (1e-170 * x[:200], 1e-170 * x[200:]):
        with pytest.raises(FloatingPointError, match="underflows float64"):
            IteratedPCA().fit(chunk)
        with pytest.raises(FloatingPointError, match="underflows float64"):
            model.fit(chunk)
    assert model.fit_count_ == 1
    assert all(new is old for new, old in
               zip((model.means_, model.components_, model.explained_variance_), before))


def test_chunk_whose_varying_column_underflows_is_refused_beside_a_constant_one():
    # [5.1 | 1e-170 N(0, 1)] used to fit, with eigenvalues [2.57e-28, 0]
    x = np.column_stack([np.full(200, 5.1), 1e-170 * np.random.default_rng(0).standard_normal(200)])
    with pytest.raises(FloatingPointError, match="underflows float64"):
        IteratedPCA().fit(x)


def test_stale_basis_recovers_by_one_rotation():
    model, x = _stale_fitted_model(orthonormal=True)
    model.fit(x)
    assert model.fit_count_ == 2
    assert model.last_fit_diagnostics_.fallback
    v = model.components_
    assert frobenius_norm(v.T @ v - np.eye(4)) <= 1e-12
    assert np.all(np.diff(model.explained_variance_) <= 0.0)
    _, cov = sample_covariance(x)
    residual = frobenius_norm(cov @ v - v * model.explained_variance_)
    assert residual <= 1e-10 * frobenius_norm(cov)
    # same eigenvalues as a direct decomposition of this chunk
    assert np.allclose(model.explained_variance_, jacobi_eigh(cov).values, atol=1e-12)
