import numpy as np
import pytest

from streampca import refine
from streampca.ewmpca import DEFAULT_SEED_ROWS, EwmPCA, seed_initial_basis
from streampca.linalg import frobenius_norm, sample_covariance
from streampca.refine import DivergenceError, estimate_eigenvalues
from streampca.synth import well_separated_covariance


def seeded_stream(n, p, seed=3, ratio=3.0):
    rng = np.random.default_rng(seed)
    cov = well_separated_covariance(p, seed, ratio=ratio)
    return rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T


# ---------------------------------------------------------------------------
# seed_initial_basis


def test_seed_basis_near_identity_for_diagonal_data():
    rng = np.random.default_rng(1)
    head = rng.standard_normal((200, 3)) * np.array([4.0, 2.0, 1.0])
    basis = seed_initial_basis(head)
    # columns are the coordinate axes up to small sample rotation, signs positive
    assert np.allclose(np.abs(basis), np.eye(3), atol=0.2)
    lead = np.argmax(np.abs(basis), axis=0)
    assert np.all(basis[lead, np.arange(3)] > 0)


def test_seed_basis_needs_p_plus_one_rows():
    with pytest.raises(ValueError, match="p \\+ 1"):
        seed_initial_basis(np.zeros((3, 3)))


def test_seed_basis_passes_oracle_residual_checks():
    rng = np.random.default_rng(2)
    head = rng.standard_normal((100, 5))
    basis = seed_initial_basis(head)
    _, cov = sample_covariance(head)
    lam = estimate_eigenvalues(cov, basis)
    assert frobenius_norm(cov @ basis - basis * lam) <= 1e-12 * max(1.0, frobenius_norm(cov))
    assert frobenius_norm(basis.T @ basis - np.eye(5)) <= 1e-12
    assert np.all(np.diff(lam) <= 0.0)


def test_default_seed_head_is_100_rows():
    assert DEFAULT_SEED_ROWS == 100
    # add_all on a fresh model behaves exactly like seeding from the first
    # 100 rows explicitly
    x = seeded_stream(150, 3)
    auto = EwmPCA(0.95)
    z_auto = auto.add_all(x)
    explicit = EwmPCA(0.95, initial_basis=seed_initial_basis(x[:100]))
    z_explicit = explicit.add_all(x)
    assert np.array_equal(z_auto, z_explicit)


# ---------------------------------------------------------------------------
# add


def test_first_add_returns_zero_row():
    model = EwmPCA(0.9)
    z = model.add([3.0, -1.0, 2.0])
    assert np.array_equal(z, np.zeros(3))
    assert model.observation_count == 1


def test_scalar_worked_example():
    # p=1, alpha=0.5, x = 1 then 3: m=2, x*=1, S=[[0.5]], W=[+1], z=+1
    model = EwmPCA(0.5)
    assert np.array_equal(model.add([1.0]), [0.0])
    z = model.add([3.0])
    assert np.array_equal(z, [1.0])
    assert np.array_equal(model.state.mean, [2.0])
    assert np.array_equal(model.state.cov, [[0.5]])
    assert np.array_equal(model.basis, [[1.0]])


def test_add_dimension_mismatch():
    model = EwmPCA(0.9)
    model.add([1.0, 2.0])
    with pytest.raises(ValueError, match="dimension"):
        model.add([1.0, 2.0, 3.0])


def test_add_rejects_non_finite():
    model = EwmPCA(0.9)
    with pytest.raises(ValueError, match="non-finite"):
        model.add([np.inf, 0.0])


def test_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        EwmPCA(1.0)


def test_initial_basis_must_be_near_orthonormal():
    with pytest.raises(ValueError, match="near-orthonormal"):
        EwmPCA(0.9, initial_basis=np.full((3, 3), 0.9))


def test_projection_consistency_and_ordering_along_stream():
    x = seeded_stream(400, 4)
    model = EwmPCA(0.97, initial_basis=seed_initial_basis(x[:100]))
    for i, row in enumerate(x):
        z = model.add(row)
        if i == 0:
            continue
        # z is exactly the centred observation projected on the post-refinement basis
        expected = (row - model.state.mean) @ model.basis
        assert np.array_equal(z, expected)
        if i % 50 == 0:
            lam = estimate_eigenvalues(model.state.cov, model.basis)
            assert np.all(np.diff(lam) <= 0.0)


def test_per_step_residual_audit_after_warmup():
    x = seeded_stream(1000, 4, seed=9)
    model = EwmPCA(0.99, initial_basis=seed_initial_basis(x[:100]))
    for i, row in enumerate(x):
        model.add(row)
        if model.observation_count > 100 and i % 20 == 0:
            s, w = model.state.cov, model.basis
            lam = estimate_eigenvalues(s, w)
            res = frobenius_norm(s @ w - w * lam)
            assert res <= 1e-4 * max(1.0, frobenius_norm(s))


def test_orthonormality_drift_stays_tiny_after_warmup():
    x = seeded_stream(2000, 5, seed=11)
    model = EwmPCA(0.99, initial_basis=seed_initial_basis(x[:100]))
    worst = 0.0
    for i, row in enumerate(x):
        model.add(row)
        if model.observation_count > 100:
            w = model.basis
            worst = max(worst, frobenius_norm(w.T @ w - np.eye(5)))
    assert worst <= 1e-5


def test_divergence_error_carries_observation_index(monkeypatch):
    import streampca.ewmpca as mod

    def explode(*args, **kwargs):
        raise DivergenceError("boom")

    model = EwmPCA(0.9)
    model.add([1.0, 2.0])
    monkeypatch.setattr(mod, "refine_to_convergence", explode)
    with pytest.raises(DivergenceError, match="observation 2"):
        model.add([3.0, 0.5])


# ---------------------------------------------------------------------------
# add_all


def test_add_all_equals_fold_of_add_bitwise():
    x = seeded_stream(500, 4, seed=5)
    basis = seed_initial_basis(x[:100])
    batch = EwmPCA(0.97, initial_basis=basis)
    z_batch = batch.add_all(x)
    online = EwmPCA(0.97, initial_basis=basis)
    z_online = np.vstack([online.add(row) for row in x])
    assert np.array_equal(z_batch, z_online)
    assert np.array_equal(batch.state.cov, online.state.cov)
    assert np.array_equal(batch.basis, online.basis)


def test_modes_interleave():
    x = seeded_stream(300, 3, seed=6)
    basis = seed_initial_basis(x[:100])
    mixed = EwmPCA(0.95, initial_basis=basis)
    z_mixed = np.vstack(
        [mixed.add(x[0]), mixed.add_all(x[1:200]), [mixed.add(row) for row in x[200:]]]
    )
    whole = EwmPCA(0.95, initial_basis=basis)
    assert np.array_equal(z_mixed, whole.add_all(x))


def test_empty_input_leaves_state_unchanged():
    model = EwmPCA(0.9)
    out = model.add_all(np.zeros((0, 4)))
    assert out.shape == (0, 4)
    assert model.state is None
    assert model.basis is None
    # also on a live model
    model.add_all(seeded_stream(50, 4))
    cov_before = model.state.cov.copy()
    out = model.add_all(np.zeros((0, 4)))
    assert out.shape == (0, 4)
    assert np.array_equal(model.state.cov, cov_before)


def test_first_output_row_is_zero_and_aligned():
    x = seeded_stream(200, 3, seed=7)
    z = EwmPCA(0.95).add_all(x)
    assert z.shape == x.shape
    assert np.array_equal(z[0], np.zeros(3))
    assert np.any(z[1] != 0.0)


def test_determinism_identical_streams():
    x = seeded_stream(300, 4, seed=8)
    z1 = EwmPCA(0.97).add_all(x)
    z2 = EwmPCA(0.97).add_all(x)
    assert np.array_equal(z1, z2)


def test_short_input_falls_back_to_identity_seed():
    # 3 rows of 3 features: too few to seed from the head, identity is used
    x = seeded_stream(3, 3, seed=9)
    model = EwmPCA(0.9)
    z = model.add_all(x)
    assert z.shape == (3, 3)
    assert np.isfinite(z).all()


def test_local_decorrelation_small_but_nonzero():
    x = seeded_stream(2000, 5, seed=12)
    z = EwmPCA(0.99).add_all(x)
    corr = np.corrcoef(z.T)
    off = np.abs(corr[~np.eye(5, dtype=bool)])
    assert off.max() < 0.3
    assert off.max() > 0.0


def test_warmup_cap_only_applies_without_user_cap():
    x = seeded_stream(150, 3, seed=13)
    capped = EwmPCA(0.95, max_iter_count=2)
    capped.add_all(x)
    assert max(capped.iteration_counts) <= 2
    default = EwmPCA(0.95)
    default.add_all(x)
    assert max(default.iteration_counts[: DEFAULT_SEED_ROWS - 1]) <= 20


def test_truncation_count_counts_capped_rows(monkeypatch):
    x = seeded_stream(150, 3, seed=13)
    default = EwmPCA(0.95)
    default.add_all(x)
    assert default.truncation_count == 0
    # warmup_rows=1 leaves every refinement under the default cap
    monkeypatch.setattr(refine, "MAX_ITER", 1)
    capped = EwmPCA(0.95, warmup_rows=1)
    capped.add_all(x)
    assert capped.iteration_counts == [1] * 149
    assert capped.truncation_count == 149
