"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from streampca.ewmpca import EwmPCA, seed_initial_basis
from streampca.ewmstats import estimate_alpha, ewm_init, ewm_update
from streampca.ipca import IteratedPCA
from streampca.linalg import frobenius_norm, jacobi_eigh, sample_covariance
from streampca.refine import estimate_eigenvalues, refine_to_convergence
from streampca.synth import stationary_gaussian, volatility_cluster

from conftest import frobenius_perturbation, well_separated_symmetric

_SUITE_START = time.perf_counter()


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def refinement_suite():
    """100 well-separated symmetric matrices (dim 2..30), oracle bases
    perturbed by Frobenius-size 1e-2, refined to the kernel's certified stop."""
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(100):
        dim = int(rng.integers(2, 31))
        a, _ = well_separated_symmetric(dim, seed=9000 + k)
        oracle = jacobi_eigh(a)
        x0 = oracle.vectors + frobenius_perturbation((dim, dim), 1e-2, 500 + k)
        refined, diag = refine_to_convergence(a, x0)
        cases.append((a, oracle, refined, diag))
    return cases


def test_criterion_1_refinement_correctness(refinement_suite):
    worst_res, worst_orth = 0.0, 0.0
    for a, _, refined, _ in refinement_suite:
        dim = a.shape[0]
        lam = estimate_eigenvalues(a, refined)
        scale = max(1.0, frobenius_norm(a))
        worst_res = max(worst_res, frobenius_norm(a @ refined - refined * lam) / scale)
        worst_orth = max(
            worst_orth, frobenius_norm(refined.T @ refined - np.eye(dim))
        )
    ok = worst_res <= 1e-10 and worst_orth <= 1e-10
    report(
        1,
        ok,
        f"refinement on 100 matrices: worst residual/scale {worst_res:.2e} "
        f"(<= 1e-10), worst orthogonality {worst_orth:.2e} (<= 1e-10)",
    )


def test_criterion_2_quadratic_convergence(refinement_suite):
    good = 0
    for a, _, refined, diag in refinement_suite:
        floor = 1e-13 * max(1.0, frobenius_norm(refined))
        eps = diag.step_norm_history
        pairs = [
            (eps[i], eps[i + 1]) for i in range(len(eps) - 1) if eps[i + 1] > floor
        ]
        if not pairs:
            good += 1  # converged too fast to measure: no evidence against
            continue
        fitted_c = max(e_next / e_prev**2 for e_prev, e_next in pairs)
        if fitted_c < 10.0 * frobenius_norm(a):
            good += 1
    ok = good >= 90
    report(2, ok, f"step norms quadratic (C < 10 ||A||_F) in {good}/100 cases (>= 90)")


def test_criterion_3_eigenvalue_estimator_fixed_point(refinement_suite):
    worst = 0.0
    for a, oracle, _, _ in refinement_suite:
        lam = estimate_eigenvalues(a, oracle.vectors)
        worst = max(worst, np.max(np.abs(lam - oracle.values) / np.abs(oracle.values)))
    ok = worst <= 1e-12
    report(3, ok, f"eigenvalue estimates on exact bases: worst rel error {worst:.2e} (<= 1e-12)")


def _classical_chunk_basis(chunk):
    """Independent per-chunk PCA with the benchmark-style sign rule: the
    observation with the largest |score| scores positive."""
    means, cov = sample_covariance(chunk)
    basis = jacobi_eigh(cov)
    scores = (chunk - means) @ basis.vectors
    lead = np.argmax(np.abs(scores), axis=0)
    signs = np.sign(scores[lead, np.arange(scores.shape[1])])
    signs[signs == 0.0] = 1.0
    return basis.vectors * signs


def test_criterion_4_ipca_sign_stability():
    runs, chunks, n, p = 8, 10, 10_000, 9
    worst_rho = 1.0
    continuity_ok = True
    control_flip_runs = 0
    for run in range(runs):
        x = stationary_gaussian(n, p, seed=40 + run)
        whole = IteratedPCA().fit_transform(x)
        model = IteratedPCA()
        pieces, previous = [], None
        control_previous, control_flipped = None, False
        for k in range(chunks):
            chunk = x[k * (n // chunks) : (k + 1) * (n // chunks)]
            pieces.append(model.fit_transform(chunk))
            if previous is not None:
                dots = np.einsum("ij,ij->j", previous, model.components_)
                continuity_ok &= bool(np.all(dots > 0.0))
            previous = model.components_.copy()
            control = _classical_chunk_basis(chunk)
            if control_previous is not None:
                control_flipped |= bool(
                    np.any(np.einsum("ij,ij->j", control_previous, control) < 0.0)
                )
            control_previous = control
        stacked = np.vstack(pieces)
        for j in range(p):
            worst_rho = min(
                worst_rho, abs(np.corrcoef(stacked[:, j], whole[:, j])[0, 1])
            )
        control_flip_runs += int(control_flipped)
    ok = worst_rho >= 0.99 and continuity_ok and control_flip_runs >= runs / 2
    report(
        4,
        ok,
        f"IPCA vs whole-sample PCA: min |rho| {worst_rho:.4f} (>= 0.99), "
        f"sign continuity {continuity_ok}, classical control flipped on "
        f"{control_flip_runs}/{runs} runs (>= {runs // 2})",
    )


def test_criterion_5_ewm_recursions_match_brute_force():
    rng = np.random.default_rng(99)
    x = rng.standard_normal((500, 3))
    n, p = x.shape
    worst = 0.0
    for alpha in (0.5, 0.9, 0.9305, 0.99):
        # brute-force unrolled weighted sums
        means = np.empty((n, p))
        for t in range(1, n + 1):
            w = np.empty(t)
            w[0] = alpha ** (t - 1)
            for k in range(2, t + 1):
                w[k - 1] = (1.0 - alpha) * alpha ** (t - k)
            means[t - 1] = w @ x[:t]
        state = ewm_init(x[0], alpha)
        for t in range(2, n + 1):
            state = ewm_update(state, x[t - 1])
            worst = max(
                worst,
                np.max(np.abs(state.mean - means[t - 1]))
                / max(1.0, np.max(np.abs(means[t - 1]))),
            )
            if t in (2, 10, 100, 250, 500):
                acc = np.zeros((p, p))
                for k in range(2, t + 1):
                    d = x[k - 1] - means[k - 1]
                    acc += (1.0 - alpha) * alpha ** (t - k) * np.outer(d, d)
                worst = max(
                    worst,
                    frobenius_norm(state.cov - acc) / max(1.0, frobenius_norm(acc)),
                )
    ok = worst <= 1e-12
    report(5, ok, f"EWM recursions vs unrolled sums: worst rel error {worst:.2e} (<= 1e-12)")


def test_criterion_6_online_batch_equivalence():
    x = stationary_gaussian(5000, 6, seed=8)
    basis = seed_initial_basis(x[:100])
    batch = EwmPCA(0.97, initial_basis=basis)
    z_batch = batch.add_all(x)
    online = EwmPCA(0.97, initial_basis=basis)
    z_online = np.vstack([online.add(row) for row in x])
    ok = (
        np.array_equal(z_batch, z_online)
        and np.array_equal(batch.state.mean, online.state.mean)
        and np.array_equal(batch.state.cov, online.state.cov)
        and np.array_equal(batch.basis, online.basis)
    )
    report(6, ok, "add_all equals the fold of add bit-for-bit on a 5000x6 stream")


def test_criterion_7_ewmpca_local_decorrelation():
    n, p = 10_000, 5
    x = stationary_gaussian(n, p, seed=21)
    model = EwmPCA(0.99, initial_basis=seed_initial_basis(x[:100]))
    drift = 0.0
    z = np.empty_like(x)
    for i in range(n):
        z[i] = model.add(x[i])
        if model.observation_count > 100:  # past the seed rows
            w = model.basis
            drift = max(drift, frobenius_norm(w.T @ w - np.eye(p)))
    corr = np.corrcoef(z.T)
    off = np.abs(corr[~np.eye(p, dtype=bool)])
    ok = drift <= 1e-5 and off.max() < 0.3 and off.max() > 0.0
    report(
        7,
        ok,
        f"10k-step stream: orthonormality drift {drift:.2e} (<= 1e-5), "
        f"component correlations max {off.max():.3f} (< 0.3, not all zero)",
    )


def test_criterion_8_alpha_estimation_well_posed():
    x = volatility_cluster(1500, 3, persistence=0.97, seed=7)
    grid = 0.80 + 0.01 * np.arange(20)
    a1, c1 = estimate_alpha(x, grid, burn_in=30)
    a2, c2 = estimate_alpha(x, grid, burn_in=30)
    ok = bool(np.isfinite(c1).all() and a1 == a2 and np.array_equal(c1, c2))
    report(
        8,
        ok,
        f"likelihood finite at all {len(grid)} grid points, argmax {a1:.2f} "
        f"bit-identical across runs",
    )


def test_acceptance_suite_runtime_budget():
    elapsed = time.perf_counter() - _SUITE_START
    ok = elapsed < 300.0
    report(0, ok, f"acceptance suite wall time {elapsed:.1f}s (< 300s)")
