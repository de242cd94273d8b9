import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampca import linalg, refine
from streampca.ewmpca import EwmPCA
from streampca.ewmstats import ewm_update
from streampca.ipca import IteratedPCA
from streampca.linalg import frobenius_norm, jacobi_eigh, sample_covariance
from streampca.refine import (
    CERT_RTOL,
    MAX_DRIFT,
    MAX_ITER,
    RecoveryError,
    estimate_eigenvalues,
    refine_step,
    refine_to_convergence,
)
from streampca.synth import stationary_gaussian

from conftest import frobenius_perturbation, random_orthogonal, well_separated_symmetric


# ---------------------------------------------------------------------------
# estimate_eigenvalues


def test_identity_inputs():
    assert np.array_equal(estimate_eigenvalues(np.eye(3), np.eye(3)), np.ones(3))


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


def test_empty_matrix_is_refused_as_jacobi_refuses_it():
    # a 0 x 0 pair used to give an empty basis, with one iteration and a step of 0
    empty = np.zeros((0, 0))
    refusal = r"^A must be square and non-empty, got shape \(0, 0\)$"
    for entry in (estimate_eigenvalues, refine_step, refine_to_convergence):
        with pytest.raises(ValueError, match=refusal):
            entry(empty, empty)
    with pytest.raises(ValueError, match="square and non-empty"):
        jacobi_eigh(empty)


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
    # How far one step may move a jacobi_eigh basis V, from the solver's stop
    # rule and the smallest gap g of the drawn spectrum (0.7 or more here;
    # u is the unit roundoff, all norms Frobenius):
    # - the solver stops once the off-diagonal mass of its V^T A V is at most
    #   tau = 1e-13 ||A||.  The step forms S = V^T A V afresh, which
    #   rounds each entry by at most 2p u (|V|^T |A| |V|)_ij, so
    #   off(S) <= tau + rho with rho = 2 p^2 u ||A|| (||V||^2 = p);
    # - with R = I - V^T V, the step's off-diagonal entries
    #   (s_ij + lambda_j r_ij) / (lambda_j - lambda_i) are at most
    #   (|s_ij| + ||A|| |r_ij|) / g and its diagonal ones r_ii / 2, so
    #   ||V E|| <= (1 + ||R||) ((tau + rho + ||A|| ||R||) / g + ||R|| / 2);
    # - adding V E to V rounds by at most u ||V|| = u sqrt(p).
    # The estimated gaps differ from the true ones by about rho, far below g.
    # The step can come close to the bound: over seeds 0-31999 the worst
    # move was 0.97 of it, and 0.997 of tau / g alone.
    dim = 3 + seed % 8
    a, values = well_separated_symmetric(dim, seed)
    vectors = jacobi_eigh(a).vectors
    out = refine_step(a, vectors)
    u = np.finfo(np.float64).eps / 2.0
    norm_a = frobenius_norm(a)
    r = frobenius_norm(np.eye(dim) - vectors.T @ vectors)
    tau, rho = 1e-13 * norm_a, 2.0 * dim * dim * u * norm_a
    gap = float(np.min(-np.diff(values)))
    bound = (1.0 + r) * ((tau + rho + norm_a * r) / gap + r / 2.0) + u * np.sqrt(dim)
    assert frobenius_norm(out - vectors) <= bound


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
    out, diag = refine_to_convergence(np.diag([4.0, 1.0]), np.eye(2))
    assert np.array_equal(out, np.eye(2))
    assert diag.iterations == 1
    assert diag.step_norm_history == (0.0,)
    assert not diag.truncated
    assert np.array_equal(diag.eigenvalues, [4.0, 1.0])


def test_cap_stop_is_certified(monkeypatch):
    # no step norm falls below 1e-300: the pass stops at the cap, certified
    a, _ = well_separated_symmetric(7, seed=3)
    oracle = jacobi_eigh(a)
    x0 = oracle.vectors + frobenius_perturbation((7, 7), 1e-2, 31)
    monkeypatch.setattr(refine, "TOL", 1e-300)
    out, diag = refine_to_convergence(a, x0)
    assert diag.iterations == MAX_ITER
    assert diag.truncated and not diag.fallback
    assert relative_residual(a, out, diag) <= CERT_RTOL


def test_converges_quadratically_to_tight_tolerance(monkeypatch):
    a, _ = well_separated_symmetric(12, seed=8)
    oracle = jacobi_eigh(a)
    x0 = oracle.vectors + frobenius_perturbation((12, 12), 1e-2, 99)
    monkeypatch.setattr(refine, "TOL", 1e-12)
    out, diag = refine_to_convergence(a, x0)
    lam = estimate_eigenvalues(a, out)
    res = frobenius_norm(a @ out - out * lam)
    assert res <= 1e-10 * frobenius_norm(a)
    # step norms shrink at least quadratically-ish until the floor
    eps = diag.step_norm_history
    for e_prev, e_next in zip(eps, eps[1:]):
        if e_next > 1e-13:
            assert e_next <= 10.0 * frobenius_norm(a) * e_prev**2


def test_step_norm_history_matches_diagnostics():
    a, _ = well_separated_symmetric(6, seed=4)
    oracle = jacobi_eigh(a)
    x0 = oracle.vectors + frobenius_perturbation((6, 6), 1e-2, 55)
    _, diag = refine_to_convergence(a, x0)
    assert len(diag.step_norm_history) == diag.iterations
    assert diag.iterations >= 1
    assert diag.step_norm_history[-1] < refine.TOL and not diag.truncated


def test_sorting_clause_orders_values_and_permutes_columns():
    a, _ = well_separated_symmetric(6, seed=12)
    oracle = jacobi_eigh(a)
    # scramble the column order so sorting has work to do
    perm = np.array([3, 0, 5, 1, 4, 2])
    x0 = oracle.vectors[:, perm] + frobenius_perturbation((6, 6), 1e-3, 13)
    unsorted_out, _ = reference_loop(a, x0, sort=False)
    sorted_out, diag = refine_to_convergence(a, x0)
    lam_sorted = estimate_eigenvalues(a, sorted_out)
    assert np.all(np.diff(lam_sorted) <= 0.0)
    # the sort hands back the estimates it formed, permuted with the columns
    assert np.array_equal(diag.eigenvalues, lam_sorted)
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


def test_wild_start_is_refused_without_a_warning():
    a, _ = well_separated_symmetric(6, seed=2)
    rng = np.random.default_rng(0)
    wild = 10.0 * rng.standard_normal((6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Xhat is not near-orthonormal "
                           r"\(\|\|I - X\^T X\|\|_F = .* > 1\)$"):
            refine_to_convergence(a, wild)


def sweep_spectrum(family, p, rng):
    """p eigenvalues of one family of the start sweep."""
    return {
        "geometric": lambda: 2.0 ** -np.arange(p),
        "ladder": lambda: np.arange(p, 0, -1.0),
        "clustered": lambda: np.r_[10.0, 7.0, 1e-8 * (1.0 + 1e-3 * rng.standard_normal(p))][:p],
        "graded": lambda: 10.0 ** -rng.uniform(0.0, 14.0, p),
        "rank-deficient": lambda: np.r_[np.arange(p - 1, 0, -1.0), 0.0],
        "near-isotropic": lambda: 1.0 + 1e-6 * rng.standard_normal(p),
    }[family]()


def drifted(q, drift, rng):
    """Q (I - R)^(1/2) for a random symmetric R with ||R||_F = drift (and
    ||R||_2 < 1), so that I - X^T X = R: an orthogonal Q, stretched and skewed."""
    g = rng.standard_normal(q.shape)
    w, u = np.linalg.eigh(drift * (g + g.T) / np.linalg.norm(g + g.T))
    return q @ (u * np.sqrt(1.0 - w)) @ u.T


def test_every_start_within_the_bound_certifies_without_a_warning():
    # The seeded slice of a sweep of spectra, sizes and starts: the exact
    # basis V, perturbed by up to 0.3 in Frobenius norm; a random orthogonal
    # Q; and V and Q skewed to ||I - X^T X||_F = 0.999
    seed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (2, 3, 4, 6, 9, 16, 32) * 2:
            for family in ("geometric", "ladder", "clustered", "graded", "rank-deficient",
                           "near-isotropic"):
                seed += 1
                rng = np.random.default_rng(seed)
                v, q = random_orthogonal(p, rng), random_orthogonal(p, rng)
                a = (v * sweep_spectrum(family, p, rng)) @ v.T
                a = (a + a.T) / 2.0
                starts = [v + frobenius_perturbation((p, p), eta, seed)
                          for eta in (0.0, 1e-8, 1e-4, 1e-2, 0.1, 0.3)]
                starts += [q, drifted(v, 0.999, rng), drifted(q, 0.999, rng)]
                for x in starts:
                    assert frobenius_norm(np.eye(p) - x.T @ x) <= MAX_DRIFT
                    out, diag = refine_to_convergence(a, x)
                    assert relative_residual(a, out, diag) <= CERT_RTOL
        # just above the bound
        a, _ = well_separated_symmetric(6, seed=2)
        with pytest.raises(ValueError, match="^Xhat is not near-orthonormal"):
            refine_to_convergence(a, drifted(np.eye(6), 1.001, np.random.default_rng(0)))


def test_invalid_tol_and_max_iter():
    # the step tolerance and the step cap are fixed: no caller sets them
    with pytest.raises(TypeError, match="tol"):
        refine_to_convergence(np.eye(2), np.eye(2), tol=1e-6)
    with pytest.raises(TypeError, match="max_iter_count"):
        refine_to_convergence(np.eye(2), np.eye(2), max_iter_count=1)


def test_default_cap_reports_truncation(monkeypatch):
    a, _ = well_separated_symmetric(7, seed=3)
    x0 = jacobi_eigh(a).vectors + frobenius_perturbation((7, 7), 1e-2, 31)
    # tight enough that neither pass of 2 steps reaches it
    monkeypatch.setattr(refine, "TOL", 1e-12)
    _, free = refine_to_convergence(a, x0)
    assert 2 < free.iterations < MAX_ITER and not free.truncated
    monkeypatch.setattr(refine, "MAX_ITER", 2)
    seen = spy_on_steps(monkeypatch)
    out, diag = refine_to_convergence(a, x0)
    # the first pass stops at the cap short of the certificate: the one
    # rotation, of that iterate, starts a second pass of 2 steps
    assert diag.iterations == 4
    assert diag.truncated and diag.fallback
    stalled = refine_step(a, refine_step(a, x0))
    assert np.array_equal(seen[2], stalled @ jacobi_eigh(stalled.T @ (a @ stalled)).vectors)
    assert relative_residual(a, out, diag) <= CERT_RTOL


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


def reference_loop(a, x, sort):
    steps = []
    while True:
        new_x = refine_step(a, x)
        steps.append(frobenius_norm(new_x - x))
        if len(steps) == MAX_ITER or steps[-1] < refine.TOL:
            break
        x = new_x
    if sort:
        new_x = new_x[:, np.argsort(-estimate_eigenvalues(a, new_x), kind="stable")]
    return new_x, tuple(steps)


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_loop_equals_repeated_refine_step_bitwise(monkeypatch, tol):
    monkeypatch.setattr(refine, "TOL", tol)
    for a, x0 in warm_started_pairs():
        expected, steps = reference_loop(a, x0, sort=True)
        out, diag = refine_to_convergence(a, x0)
        assert diag.iterations > 1
        assert diag.step_norm_history == steps
        assert np.array_equal(out, expected)


def test_norm_of_a_is_taken_once_per_call(monkeypatch):
    for a, x0 in warm_started_pairs():
        expected = refine_to_convergence(a, x0)[0]
        # the gate's copy of A, scaled by a power of two
        scaled = np.ldexp(a, -math.frexp(np.abs(a).max())[1])
        seen = []

        def counting(m):
            seen.append(np.array_equal(m, scaled))
            return frobenius_norm(m)

        with monkeypatch.context() as patch:
            # the gate takes the norms of Xhat and A in linalg, the steps in refine
            patch.setattr(linalg, "frobenius_norm", counting)
            patch.setattr(refine, "frobenius_norm", counting)
            out, diag = refine_to_convergence(a, x0)
        assert sum(seen) == 1
        assert not diag.fallback
        # ||A||; per step: ||S - D||, ||R|| (the start gate's, for the first)
        # and the step norm; then the certificate's ||S - D||
        assert len(seen) == 2 + 3 * diag.iterations
        assert np.array_equal(out, expected)


def nonfinite_pairs():
    """(A, Xhat, name of the non-finite one) with one NaN or infinite entry."""
    a, _ = well_separated_symmetric(4, seed=6)
    x = jacobi_eigh(a).vectors + frobenius_perturbation((4, 4), 1e-3, 8)
    pairs = []
    for bad in (np.nan, np.inf, -np.inf):
        bad_a = a.copy()
        bad_a[1, 2] = bad_a[2, 1] = bad
        bad_x = x.copy()
        bad_x[3, 0] = bad
        pairs += [
            pytest.param(bad_a, x, "A", id=f"A-{bad}"),
            pytest.param(a, bad_x, "Xhat", id=f"Xhat-{bad}"),
        ]
    return pairs


@pytest.mark.parametrize("kernel", [estimate_eigenvalues, refine_step])
@pytest.mark.parametrize("a, x, name", nonfinite_pairs())
def test_kernel_names_nonfinite_input(kernel, a, x, name):
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        kernel(a, x)


@pytest.mark.parametrize("a, x, name", nonfinite_pairs())
def test_refine_to_convergence_names_nonfinite_input(a, x, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            refine_to_convergence(a, x)


def test_overflowing_norm_raises_before_any_warning():
    a, _ = well_separated_symmetric(5, seed=3)
    # 1e155 * A: every entry is finite, ||A||_F is not; the first step used to
    # warn of an overflow and then fail on a threshold delta = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="refinement: the Frobenius norm of the 5 x 5 input overflows"):
            refine_to_convergence(1e155 * a, np.eye(5))


@pytest.mark.parametrize("kernel", [estimate_eigenvalues, refine_step])
def test_every_kernel_entry_names_an_overflowing_norm(kernel):
    # refine_step used to warn of an overflow in dot and then fail on a
    # threshold delta = nan; estimate_eigenvalues accepted what the other
    # entries refuse
    a, _ = well_separated_symmetric(5, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^refinement: the Frobenius norm of the 5 x 5 "
                           r"input overflows float64 \(largest entry .*\); rescale the data$"):
            kernel(1e155 * a, np.eye(5))


@pytest.mark.parametrize("kernel", [estimate_eigenvalues, refine_step, refine_to_convergence])
def test_every_kernel_entry_names_an_overflowing_basis(kernel):
    a, _ = well_separated_symmetric(5, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # ||Xhat||_F = 2^511 sqrt(5) >= 2^512
        for big in (1e155, 2.0**511):
            with pytest.raises(OverflowError, match=r"^refinement: the Frobenius norm of the "
                               r"5 x 5 input overflows float64 \(largest entry .*\); "
                               r"rescale the data$"):
                kernel(a, big * np.eye(5))
        # ||Xhat||_F = 2^511 is finite squared: the start gate refuses it
        with pytest.raises(ValueError, match="^Xhat is not near-orthonormal"):
            refine_to_convergence(a[:4, :4], 2.0**510 * np.eye(4))


def test_start_gate_reads_r_before_the_degenerate_column_check():
    a, _ = well_separated_symmetric(4, seed=6)
    x = np.eye(4)
    x[:, 1] = 0.0  # ||I - X^T X||_F = 1: within the bound, then degenerate
    with pytest.raises(ValueError, match="^degenerate approximate eigenvector: column 1 "):
        refine_to_convergence(a, x)
    x[0, 0] = 1.5  # above the bound, with the same zero column
    with pytest.raises(ValueError, match="^Xhat is not near-orthonormal"):
        refine_to_convergence(a, x)


def test_ewm_add_names_the_overflowing_observation():
    x = stationary_gaussian(40, 3, seed=5)
    x[30:] *= 1e78
    model = EwmPCA(0.97)
    for row in x[:30]:
        model.add(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^observation 31: refinement: the Frobenius norm"):
            model.add(x[30])


def test_ewm_add_names_the_observation_whose_covariance_is_infinite():
    x = stationary_gaussian(40, 3, seed=5)
    x[30:] *= 1e160
    model = EwmPCA(0.97)
    for row in x[:30]:
        model.add(row)
    # the covariance's outer product overflows inside ewm_update, which used
    # to warn and hand an infinite A to the kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^observation 31: moving covariance overflows "
                           r"float64 \(largest entry .*\); rescale the data$"):
            model.add(x[30])


# ---------------------------------------------------------------------------
# the certificate and its one Jacobi rotation


def relative_residual(a, out, diag):
    return frobenius_norm(a @ out - out * diag.eigenvalues) / frobenius_norm(a)


def test_identity_false_fixed_point_is_rotated_and_certified():
    a, values = well_separated_symmetric(6, seed=2)
    # every pair of the identity takes the r_ij/2 branch: the first step is 0
    assert np.array_equal(refine_step(a, np.eye(6)), np.eye(6))
    out, diag = refine_to_convergence(a, np.eye(6))
    assert diag.fallback and not diag.truncated
    assert diag.step_norm_history[0] == 0.0
    assert relative_residual(a, out, diag) <= CERT_RTOL
    assert np.allclose(diag.eigenvalues, values, rtol=1e-12)


@pytest.mark.parametrize("k", [10, 20, 40, 260, 300, 400])
def test_refinement_of_a_power_of_two_multiple_scales_exactly(k):
    # From the identity, a false fixed point, every call takes the Jacobi
    # rotation, whose stop rule is relative to ||A|| as the certificate is.
    c2 = 2.0 ** (-2 * k)
    for seed in range(20):
        dim = 3 + seed % 8
        a, _ = well_separated_symmetric(dim, seed)
        unit, unit_diag = refine_to_convergence(a, np.eye(dim))
        scaled, diag = refine_to_convergence(c2 * a, np.eye(dim))
        assert unit_diag.fallback and diag.fallback
        assert np.array_equal(scaled, unit)
        assert np.array_equal(diag.eigenvalues, c2 * unit_diag.eigenvalues)
        assert diag.step_norm_history == unit_diag.step_norm_history


def spy_on_steps(monkeypatch):
    """Record the iterate handed to every step."""
    seen = []
    step = refine._step

    def spying(a, x, *rest):
        seen.append(x.copy())
        return step(a, x, *rest)

    monkeypatch.setattr(refine, "_step", spying)
    return seen


def test_failed_certificate_rotates_the_current_iterate(monkeypatch):
    a, _ = well_separated_symmetric(6, seed=2)
    x0 = np.eye(6)[:, [1, 0, 2, 3, 5, 4]]
    seen = spy_on_steps(monkeypatch)
    out, diag = refine_to_convergence(a, x0)
    # the first step leaves the signed permutation put; the second starts
    # from that iterate times the Jacobi eigenbasis of its S
    stalled = refine_step(a, x0)
    rotation = jacobi_eigh(stalled.T @ (a @ stalled)).vectors
    assert diag.fallback and np.array_equal(seen[1], stalled @ rotation)
    assert relative_residual(a, out, diag) <= CERT_RTOL


def test_second_failure_raises_recovery_error(monkeypatch):
    a, _ = well_separated_symmetric(6, seed=2)
    # no basis of a non-diagonal A passes a certificate of 0
    monkeypatch.setattr(refine, "CERT_RTOL", 0.0)
    with pytest.raises(RecoveryError, match="^uncertified stop: .* a Jacobi rotation of S$") as err:
        refine_to_convergence(a, np.eye(6))
    assert isinstance(err.value, RuntimeError)


def test_truncated_stop_is_certified(monkeypatch):
    a, values = well_separated_symmetric(6, seed=2)
    monkeypatch.setattr(refine, "MAX_ITER", 1)
    out, diag = refine_to_convergence(a, np.eye(6))
    # the identity's one step stops at the cap, uncertified, and is rotated;
    # the rotated basis passes after its one step
    assert diag.iterations == 2 and diag.truncated and diag.fallback
    assert relative_residual(a, out, diag) <= CERT_RTOL
    assert np.allclose(diag.eigenvalues, values, rtol=1e-12)


def test_failed_cap_stops_rotate_once_then_raise(monkeypatch):
    a, _ = well_separated_symmetric(7, seed=3)
    x0 = jacobi_eigh(a).vectors + frobenius_perturbation((7, 7), 1e-2, 31)
    monkeypatch.setattr(refine, "MAX_ITER", 5)
    monkeypatch.setattr(refine, "CERT_RTOL", 0.0)
    monkeypatch.setattr(refine, "TOL", 1e-300)
    seen = spy_on_steps(monkeypatch)
    with pytest.raises(RecoveryError, match="^uncertified stop at the step cap: .* of S$"):
        refine_to_convergence(a, x0)
    # two passes of MAX_ITER steps; the second starts from the rotated iterate
    assert len(seen) == 2 * 5
    stalled = refine_step(a, seen[4])
    assert np.array_equal(seen[5], stalled @ jacobi_eigh(stalled.T @ (a @ stalled)).vectors)


@pytest.mark.parametrize("p", [32, 100])
def test_c_and_f_ordered_starts_refine_bit_identically(p):
    # From p = 32 on, BLAS product bits depend on a basis's memory layout, so
    # the kernel takes every basis in F order, the order both solvers return.
    x = stationary_gaussian(400, p, seed=1)
    start = jacobi_eigh(sample_covariance(x[:200])[1]).vectors
    _, cov = sample_covariance(x)
    c_basis, c_diag = refine_to_convergence(cov, np.ascontiguousarray(start))
    f_basis, f_diag = refine_to_convergence(cov, np.asfortranarray(start))
    assert start.flags.f_contiguous and c_basis.flags.f_contiguous
    assert np.array_equal(c_basis, f_basis)
    assert np.array_equal(c_diag.eigenvalues, f_diag.eigenvalues)
    assert c_diag.iterations == f_diag.iterations
