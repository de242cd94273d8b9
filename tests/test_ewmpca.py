import numpy as np
import pytest

from streampca import ewmpca, refine
from streampca.ewmpca import EwmPCA, seed_initial_basis
from streampca.linalg import frobenius_norm, sample_covariance
from streampca.refine import RecoveryError, estimate_eigenvalues, refine_to_convergence
from streampca.synth import stationary_gaussian, well_separated_covariance

from conftest import record_refinements, worst_relative_residual


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
    assert frobenius_norm(cov @ basis - basis * lam) <= 1e-12 * frobenius_norm(cov)
    assert frobenius_norm(basis.T @ basis - np.eye(5)) <= 1e-12
    assert np.all(np.diff(lam) <= 0.0)


def test_wide_input_seeds_from_p_plus_one_rows(monkeypatch):
    # At p = 100 the seed needs p + 1 rows.
    x = stationary_gaussian(102, 100, seed=1)
    basis = seed_initial_basis(x[:101])
    calls = record_refinements(monkeypatch, ewmpca)
    batch = EwmPCA(0.97, initial_basis=basis)
    z_batch = batch.add_all(x)
    # hard data at p = 100: every row of a short stream is certified
    assert len(calls) == 101
    assert worst_relative_residual(calls) <= 1e-10
    online = EwmPCA(0.97, initial_basis=basis)
    z_online = np.array([online.add(row) for row in x])
    assert np.array_equal(z_batch, z_online)
    assert np.array_equal(batch.basis, online.basis)


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
    # a given basis sets the dimension of the first observation
    with pytest.raises(
        ValueError, match="^observation 1: observation has dimension 2, basis has 3$"
    ):
        EwmPCA(0.9, initial_basis=np.eye(3)).add([1.0, 2.0])


def test_add_rejects_non_finite():
    model = EwmPCA(0.9)
    # the first observation reads like every later one (ewm_init checks it as x)
    with pytest.raises(ValueError, match="^observation 1: x contains non-finite entries$"):
        model.add([np.inf, 0.0])


def test_add_names_the_non_finite_observation(monkeypatch):
    calls = record_refinements(monkeypatch, ewmpca)
    x = seeded_stream(10, 3, seed=4)
    x[4, 1] = np.nan
    model = EwmPCA(0.9)
    for row in x[:4]:
        model.add(row)
    with pytest.raises(ValueError, match="^observation 5: x contains non-finite entries$"):
        model.add(x[4])
    # checked once, before the moments move or the kernel runs
    assert model.observation_count == 4 and len(calls) == 3


def test_add_all_names_the_first_non_finite_row(monkeypatch):
    calls = record_refinements(monkeypatch, ewmpca)
    x = seeded_stream(200, 3, seed=4)
    x[150, 2] = np.nan
    x[170, 0] = np.inf
    model = EwmPCA(0.97)
    with pytest.raises(ValueError, match="^observation 151: x contains non-finite entries$"):
        model.add_all(x)
    # refused before any row: the model is still fresh
    assert model.observation_count == 0 and model.basis is None and not calls


def test_add_all_counts_the_rows_already_seen(monkeypatch):
    x = seeded_stream(60, 3, seed=5)
    model = EwmPCA(0.97)
    model.add_all(x[:20])
    basis, state = model.basis.copy(), model.state
    calls = record_refinements(monkeypatch, ewmpca)
    bad = x[20:].copy()
    bad[5, 1] = np.inf
    with pytest.raises(ValueError, match="^observation 26: x contains non-finite entries$"):
        model.add_all(bad)
    assert model.state is state and np.array_equal(model.basis, basis) and not calls


def test_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        EwmPCA(1.0)


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
        EwmPCA(0.9, **controls)


def test_initial_basis_must_be_square():
    with pytest.raises(ValueError, match="^initial basis must be square$"):
        EwmPCA(0.9, initial_basis=np.eye(3)[:, :2])


def test_initial_basis_must_be_near_orthonormal():
    with pytest.raises(ValueError, match="near-orthonormal"):
        EwmPCA(0.9, initial_basis=np.full((3, 3), 0.9))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["same-signs", "mixed-signs"])
def test_huge_initial_basis_is_refused_without_a_warning(sign):
    # W^T W overflows: to inf, or, with mixed signs and no fused multiply-add,
    # to inf - inf = NaN, which a plain drift > 1e-3 test would let through
    basis = np.full((2, 2), 1e200)
    basis[0, 1] *= sign
    with pytest.raises(ValueError, match="not near-orthonormal"):
        EwmPCA(0.97, initial_basis=basis)


def test_iteration_summary_matches_every_refinement(monkeypatch):
    calls = record_refinements(monkeypatch, ewmpca)
    model = EwmPCA(0.95)
    empty = {"refinements": 0, "min": None, "max": None, "mean": None}
    assert model.iteration_summary() == empty
    model.add(np.ones(3))
    assert model.iteration_summary() == empty
    model.add_all(seeded_stream(150, 3, seed=13))
    steps = [diagnostics.iterations for _, _, diagnostics in calls]
    assert len(set(steps)) > 1
    assert model.iterations_total == sum(steps)
    assert model.iteration_summary() == {
        "refinements": len(steps),
        "min": min(steps),
        "max": max(steps),
        "mean": float(np.mean(steps)),
    }


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


def test_eigenvalues_are_the_last_refinements_estimates():
    x = seeded_stream(300, 4, seed=4)
    model = EwmPCA(0.97)
    assert model.eigenvalues() is None
    model.add(x[0])
    assert model.eigenvalues() is None
    for row in x[1:]:
        model.add(row)
        expected = estimate_eigenvalues(model.state.cov, model.basis)
        assert np.array_equal(model.eigenvalues(), expected)


def test_per_step_residual_audit_after_warmup():
    x = seeded_stream(1000, 4, seed=9)
    model = EwmPCA(0.99, initial_basis=seed_initial_basis(x[:100]))
    for i, row in enumerate(x):
        model.add(row)
        if model.observation_count > 100 and i % 20 == 0:
            s, w = model.state.cov, model.basis
            lam = estimate_eigenvalues(s, w)
            res = frobenius_norm(s @ w - w * lam)
            assert res <= 1e-4 * frobenius_norm(s)


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
        raise RecoveryError("boom")

    model = EwmPCA(0.9)
    model.add([1.0, 2.0])
    monkeypatch.setattr(mod, "refine_to_convergence", explode)
    with pytest.raises(RecoveryError, match="observation 2"):
        model.add([3.0, 0.5])


# ---------------------------------------------------------------------------
# add_all


def assert_same_model(a, b):
    assert np.array_equal(a.basis, b.basis)
    assert a.state.alpha == b.state.alpha and a.state.count == b.state.count
    assert np.array_equal(a.state.mean, b.state.mean)
    assert np.array_equal(a.state.cov, b.state.cov)


def test_add_all_equals_fold_of_add_bitwise():
    x = seeded_stream(500, 4, seed=5)
    basis = seed_initial_basis(x[:100])
    batch = EwmPCA(0.97, initial_basis=basis)
    z_batch = batch.add_all(x)
    online = EwmPCA(0.97, initial_basis=basis)
    z_online = np.vstack([online.add(row) for row in x])
    assert np.array_equal(z_batch, z_online)
    assert_same_model(batch, online)


@pytest.mark.parametrize("n, p", [(300, 4), (3, 3), (2, 5)], ids=["long", "n=p", "n<p"])
def test_add_all_on_a_fresh_model_equals_fold_of_add(n, p):
    # no seed either way: both start from the identity
    x = stationary_gaussian(n, p, seed=5)
    batch = EwmPCA(0.97)
    z_batch = batch.add_all(x)
    online = EwmPCA(0.97)
    z_online = np.vstack([online.add(row) for row in x])
    assert np.array_equal(z_batch, z_online)
    assert_same_model(batch, online)


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


@pytest.mark.parametrize("shape", [(3,), (2, 0)], ids=["1-d", "no-column"])
def test_add_all_needs_a_matrix_with_a_column(shape):
    with pytest.raises(ValueError, match=r"^X must be 2-d with at least one column, got shape"):
        EwmPCA(0.9).add_all(np.ones(shape))


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


def test_fixed_cap_bounds_every_refinement(monkeypatch):
    x = seeded_stream(150, 3, seed=13)
    monkeypatch.setattr(refine, "MAX_ITER", 3)
    capped = EwmPCA(0.95)
    capped.add_all(x)
    # one pass before the Jacobi rotation and one after it
    assert capped.iterations_max == 2 * 3


def test_truncation_count_counts_capped_rows(monkeypatch):
    x = seeded_stream(150, 3, seed=13)
    default = EwmPCA(0.95)
    default.add_all(x)
    assert default.truncation_count == 0
    monkeypatch.setattr(refine, "MAX_ITER", 3)
    calls = record_refinements(monkeypatch, ewmpca)
    capped = EwmPCA(0.95)
    capped.add_all(x)
    assert capped.truncation_count == sum(diag.truncated for _, _, diag in calls) == 105
    # a capped stop is certified like a tolerance stop, by the rotation if need be
    assert 0 < capped.fallback_count < capped.truncation_count
    for a, v, diag in calls:
        s = v.T @ a @ v
        assert frobenius_norm(s - np.diag(np.diag(s))) <= 1e-10 * frobenius_norm(a)


def test_pure_online_mode_converges_from_the_identity():
    # the identity is a false fixed point of this covariance: only the
    # certificate's rotation moves it
    x = stationary_gaussian(3000, 9, seed=1)
    model = EwmPCA(0.97)
    for row in x:
        model.add(row)
    s, w = model.state.cov, model.basis
    assert frobenius_norm(s @ w - w * model.eigenvalues()) <= 1e-10 * frobenius_norm(s)
    assert model.truncation_count == 0
    assert 0 < model.fallback_count < 100


def test_fallback_count_counts_rotated_rows(monkeypatch):
    calls = record_refinements(monkeypatch, ewmpca)
    model = EwmPCA(0.97)
    model.add_all(seeded_stream(150, 4, seed=14))
    assert model.fallback_count == sum(diag.fallback for _, _, diag in calls) > 0


@pytest.mark.parametrize("p", [32, 100])
def test_c_and_f_ordered_initial_bases_give_identical_bits(p):
    x = stationary_gaussian(220, p, seed=1)
    start = seed_initial_basis(x[:200])
    models = [EwmPCA(0.97, initial_basis=layout(start))
              for layout in (np.ascontiguousarray, np.asfortranarray)]
    assert all(model.basis.flags.f_contiguous for model in models)
    series = [model.add_all(x[200:]) for model in models]
    assert np.array_equal(*series)
    assert np.array_equal(models[0].basis, models[1].basis)
    assert np.array_equal(models[0].eigenvalues(), models[1].eigenvalues())
