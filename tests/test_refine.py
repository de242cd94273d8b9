import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampca import refine
from streampca.ewmpca import EwmPCA
from streampca.ewmstats import ewm_update
from streampca.ipca import IteratedPCA
from streampca.linalg import frobenius_norm, jacobi_eigh, sample_covariance
from streampca.refine import (
    MAX_ITER,
    DivergenceError,
    estimate_eigenvalues,
    refine_step,
    refine_to_convergence,
)
from streampca.synth import stationary_gaussian

from conftest import frobenius_perturbation, well_separated_symmetric


# ---------------------------------------------------------------------------
# estimate_eigenvalues


def test_identity_inputs():
    lam, r, s = estimate_eigenvalues(np.eye(3), np.eye(3), return_extra=True)
    assert np.array_equal(lam, np.ones(3))
    assert np.array_equal(r, np.zeros((3, 3)))
    assert np.array_equal(s, np.eye(3))


def test_returns_plain_vector_without_flag():
    out = estimate_eigenvalues(np.eye(2), np.eye(2))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_exact_2x2_eigenvectors():
    vectors = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    lam = estimate_eigenvalues([[2.0, 1.0], [1.0, 2.0]], vectors)
    assert lam == pytest.approx([3.0, 1.0], abs=1e-14)


def test_degenerate_column_raises():
    x = np.eye(3)
    x[:, 1] = 0.0
    with pytest.raises(ValueError, match="degenerate approximate eigenvector"):
        estimate_eigenvalues(np.eye(3), x)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="does not match"):
        estimate_eigenvalues(np.eye(3), np.eye(2))


def test_perturbed_oracle_vectors_give_quadratically_close_values():
    # 1e-3 basis perturbation -> O(1e-6) eigenvalue error; measured worst case
    # over 30 seeds was 1.6e-6, asserted here with ~3x headroom.
    worst = 0.0
    for seed in range(10):
        a, _ = well_separated_symmetric(6, seed)
        oracle = jacobi_eigh(a)
        x = oracle.vectors + frobenius_perturbation((6, 6), 1e-3, 1000 + seed)
        lam = estimate_eigenvalues(a, x)
        worst = max(worst, np.max(np.abs(np.sort(lam)[::-1] - oracle.values)))
    assert worst <= 5e-6


# ---------------------------------------------------------------------------
# refine_step


def test_refine_step_diagonal_fixed_point_is_exact():
    out = refine_step(np.diag([5.0, 2.0]), np.eye(2))
    assert np.array_equal(out, np.eye(2))


def test_refine_step_exact_eigenvectors_fixed_point():
    vectors = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = refine_step([[2.0, 1.0], [1.0, 2.0]], vectors)
    assert frobenius_norm(out - vectors) <= 1e-14 * frobenius_norm(vectors)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_refine_step_oracle_basis_fixed_point_property(seed):
    # Solver output is exact only up to roundoff, so the reachable fixed-point
    # displacement scales with ||A|| (matmul noise in S divided by the gaps,
    # which are >= ~1 by construction here).
    dim = 3 + seed % 8
    a, _ = well_separated_symmetric(dim, seed)
    vectors = jacobi_eigh(a).vectors
    out = refine_step(a, vectors)
    assert frobenius_norm(out - vectors) <= 1e-13 * max(1.0, frobenius_norm(a))


def test_refine_step_reduces_residual_10x10():
    a, _ = well_separated_symmetric(10, seed=21)
    oracle = jacobi_eigh(a)
    x0 = oracle.vectors + frobenius_perturbation((10, 10), 1e-2, 77)

    def residual(x):
        lam = estimate_eigenvalues(a, x)
        return frobenius_norm(a @ x - x * lam)

    x1 = refine_step(a, x0)
    assert residual(x1) < residual(x0)


def test_one_step_quadratic_error_reduction():
    # eta -> C eta^2 with C ~ 1.2 measured; the documented contract is a
    # constant factor of 10.
    for eta in (1e-2, 1e-3):
        for seed in range(5):
            a, _ = well_separated_symmetric(8, seed)
            oracle = jacobi_eigh(a)
            x0 = oracle.vectors + frobenius_perturbation((8, 8), eta, 2000 + seed)
            x1 = refine_step(a, x0)
            assert frobenius_norm(x1 - oracle.vectors) <= 10.0 * eta**2


# ---------------------------------------------------------------------------
# refine_to_convergence


def test_diagonal_converges_in_one_iteration():
    out, diag = refine_to_convergence(np.diag([4.0, 1.0]), np.eye(2), tol=1e-1)
    assert np.array_equal(out, np.eye(2))
    assert diag.iterations == 1
    assert diag.final_step_norm == 0.0
    assert not diag.truncated


def test_max_iter_one_takes_exactly_one_step():
    a, _ = well_separated_symmetric(7, seed=3)
    oracle = jacobi_eigh(a)
    x0 = oracle.vectors + frobenius_perturbation((7, 7), 1e-2, 31)
    out, diag = refine_to_convergence(a, x0, tol=1e-30, max_iter_count=1)
    assert diag.iterations == 1
    assert diag.truncated
    assert np.array_equal(out, refine_step(a, x0))


def test_converges_quadratically_to_tight_tolerance():
    a, _ = well_separated_symmetric(12, seed=8)
    oracle = jacobi_eigh(a)
    x0 = oracle.vectors + frobenius_perturbation((12, 12), 1e-2, 99)
    out, diag = refine_to_convergence(a, x0, tol=1e-12)
    lam = estimate_eigenvalues(a, out)
    res = frobenius_norm(a @ out - out * lam)
    assert res <= 1e-10 * max(1.0, frobenius_norm(a))
    # step norms shrink at least quadratically-ish until the floor
    eps = diag.step_norm_history
    for e_prev, e_next in zip(eps, eps[1:]):
        if e_next > 1e-13:
            assert e_next <= 10.0 * frobenius_norm(a) * e_prev**2


def test_step_norm_history_matches_diagnostics():
    a, _ = well_separated_symmetric(6, seed=4)
    oracle = jacobi_eigh(a)
    x0 = oracle.vectors + frobenius_perturbation((6, 6), 1e-2, 55)
    _, diag = refine_to_convergence(a, x0, tol=1e-10)
    assert diag.final_step_norm == diag.step_norm_history[-1]
    assert len(diag.delta_history) == diag.iterations
    assert len(diag.step_norm_history) == diag.iterations
    assert diag.iterations >= 1


def test_sorting_clause_orders_values_and_permutes_columns():
    a, _ = well_separated_symmetric(6, seed=12)
    oracle = jacobi_eigh(a)
    # scramble the column order so sorting has work to do
    perm = np.array([3, 0, 5, 1, 4, 2])
    x0 = oracle.vectors[:, perm] + frobenius_perturbation((6, 6), 1e-3, 13)
    unsorted_out, _ = refine_to_convergence(a, x0, tol=1e-12)
    sorted_out, _ = refine_to_convergence(a, x0, tol=1e-12, sort_by_eigenvalues=True)
    lam_sorted = estimate_eigenvalues(a, sorted_out)
    assert np.all(np.diff(lam_sorted) <= 0.0)
    # same columns, only reordered
    match = np.abs(sorted_out.T @ unsorted_out)
    assert np.allclose(np.sort(match.max(axis=1)), np.ones(6), atol=1e-8)
    for col in range(6):
        j = int(np.argmax(match[col]))
        assert np.allclose(sorted_out[:, col], unsorted_out[:, j], atol=1e-12)


def test_monotone_orthogonality_over_steps():
    for seed in range(5):
        a, _ = well_separated_symmetric(9, seed)
        oracle = jacobi_eigh(a)
        x = oracle.vectors + frobenius_perturbation((9, 9), 1e-2, 3000 + seed)
        prev = frobenius_norm(x.T @ x - np.eye(9))
        for _ in range(4):
            x = refine_step(a, x)
            cur = frobenius_norm(x.T @ x - np.eye(9))
            if prev > 1e-13:
                assert cur <= prev * (1.0 + 1e-6) + 1e-15
            prev = cur


def test_divergence_guard_fires_on_wild_start():
    a, _ = well_separated_symmetric(6, seed=2)
    rng = np.random.default_rng(0)
    wild = 10.0 * rng.standard_normal((6, 6))
    with pytest.raises(DivergenceError, match="refinement diverging"):
        refine_to_convergence(a, wild, tol=1e-12)


def test_invalid_tol_and_max_iter():
    with pytest.raises(ValueError, match="tol"):
        refine_to_convergence(np.eye(2), np.eye(2), tol=0.0)
    with pytest.raises(ValueError, match="max_iter_count"):
        refine_to_convergence(np.eye(2), np.eye(2), max_iter_count=0)


def test_default_cap_reports_truncation(monkeypatch):
    a, _ = well_separated_symmetric(7, seed=3)
    x0 = jacobi_eigh(a).vectors + frobenius_perturbation((7, 7), 1e-2, 31)
    _, free = refine_to_convergence(a, x0, tol=1e-12)
    assert 2 < free.iterations < MAX_ITER and not free.truncated
    monkeypatch.setattr(refine, "MAX_ITER", 2)
    out, diag = refine_to_convergence(a, x0, tol=1e-12)
    assert diag.iterations == 2
    assert diag.truncated
    assert np.array_equal(out, refine_step(a, refine_step(a, x0)))


# ---------------------------------------------------------------------------
# the loop against a plain loop of the public step


def warm_started_pairs():
    """(covariance, previous basis) as EwmPCA and IteratedPCA hand them over."""
    x = stationary_gaussian(400, 6, seed=5)
    model = EwmPCA(0.97)
    model.add_all(x[:300])
    ewm = ewm_update(model.state, x[300]).cov
    chunked = IteratedPCA().fit(x[:200])
    _, chunk_cov = sample_covariance(x[200:])
    return [(ewm, model.basis), (chunk_cov, chunked.components_)]


def reference_loop(a, x, tol, sort):
    steps = []
    while True:
        new_x = refine_step(a, x)
        steps.append(frobenius_norm(new_x - x))
        if len(steps) == MAX_ITER or steps[-1] < tol:
            break
        x = new_x
    if sort:
        new_x = new_x[:, np.argsort(-estimate_eigenvalues(a, new_x), kind="stable")]
    return new_x, tuple(steps)


@pytest.mark.parametrize("sort", [False, True])
@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_loop_equals_repeated_refine_step_bitwise(tol, sort):
    for a, x0 in warm_started_pairs():
        expected, steps = reference_loop(a, x0, tol, sort)
        out, diag = refine_to_convergence(a, x0, tol=tol, sort_by_eigenvalues=sort)
        assert diag.iterations > 1
        assert diag.step_norm_history == steps
        assert np.array_equal(out, expected)


def test_norm_of_a_is_taken_once_per_call():
    for a, x0 in warm_started_pairs():
        seen = []

        def counting(m):
            seen.append(m is a)
            return frobenius_norm(m)

        out, diag = refine_to_convergence(a, x0, norm=counting, sort_by_eigenvalues=True)
        assert sum(seen) == 1
        # per step: ||S - D||, ||R|| and the step norm
        assert len(seen) == 1 + 3 * diag.iterations
        assert np.array_equal(out, refine_to_convergence(a, x0, sort_by_eigenvalues=True)[0])
