"""Each output check of the benchmark passes a right answer and flags a wrong one.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from streampca import EwmPCA, cli, ewm_loglik, seed_initial_basis  # noqa: E402


def rotate(basis, i, j, angle):
    """Rotate columns i and j of ``basis`` by ``angle``: still orthonormal."""
    out = basis.copy()
    c, s = np.cos(angle), np.sin(angle)
    out[:, i], out[:, j] = c * basis[:, i] - s * basis[:, j], s * basis[:, i] + c * basis[:, j]
    return out


# ---------------------------------------------------------------------------
# ewm-online

@pytest.fixture
def ewm_case():
    x = workloads.geometric_gaussian(np.random.default_rng(3), 200, 5)
    means, covs = checks.ewm_moments(x, 0.97)
    t = 150
    basis = np.linalg.eigh(covs[t])[1][:, ::-1]
    return x[t], means[t], covs[t], basis, (x[t] - means[t]) @ basis


def test_ewm_moments_match_unrolled_sums():
    x = np.random.default_rng(0).standard_normal((40, 3))
    a = 0.9
    means, covs = checks.ewm_moments(x, a)
    t = 39
    w = (1 - a) * a ** np.arange(t, -1, -1.0)
    w[0] = a**t
    assert np.allclose(means[t], w @ x, rtol=1e-13)
    d = x[1:] - means[1:]
    v = (1 - a) * a ** np.arange(t - 1, -1, -1.0)
    assert np.allclose(covs[t], (d * v[:, None]).T @ d, rtol=1e-12)


def test_ewm_check_passes_an_eigenbasis(ewm_case):
    assert checks.ewm_row_faults(*ewm_case) == (False, False)


def test_ewm_check_flags_a_stalled_basis(ewm_case):
    x, mean, cov, basis, _ = ewm_case
    stale = rotate(basis, 1, 2, 1e-4)
    assert checks.ewm_row_faults(x, mean, cov, stale, (x - mean) @ stale) == (True, False)


def test_ewm_check_flags_a_non_orthonormal_basis(ewm_case):
    x, mean, cov, basis, row = ewm_case
    skewed = basis.copy()
    skewed[:, 0] *= 1 + 1e-8
    assert checks.ewm_row_faults(x, mean, cov, skewed, (x - mean) @ skewed)[1]


def test_ewm_check_flags_a_wrong_row(ewm_case):
    x, mean, cov, basis, row = ewm_case
    assert checks.ewm_row_faults(x, mean, cov, basis, row * (1 + 1e-9)) == (False, True)
    assert checks.ewm_row_faults(x, mean, cov, basis, x @ basis)[1]


def test_ewm_check_on_the_program():
    x = workloads.geometric_gaussian(np.random.default_rng(5), 400, 6)
    means, covs = checks.ewm_moments(x, 0.97)
    model = EwmPCA(0.97, initial_basis=seed_initial_basis(x[:100]))
    faults = []
    for t in range(len(x)):
        row = model.add(x[t])
        if t >= 100:
            faults.append(checks.ewm_row_faults(x[t], means[t], covs[t], model.basis, row))
    assert not any(broken for _, broken in faults)


# ---------------------------------------------------------------------------
# ipca-csv

@pytest.fixture
def ipca_case():
    per, days = 60, 3
    data = workloads.geometric_gaussian(np.random.default_rng(4), per * days, 4)
    stamps = workloads.trading_minutes(days, per)
    bounds = [(d * per, (d + 1) * per) for d in range(days)]
    scores, values = [], []
    for lo, hi in bounds:
        lam, vec = np.linalg.eigh(np.cov(data[lo:hi], rowvar=False))
        scores.append((data[lo:hi] - data[lo:hi].mean(axis=0)) @ vec[:, ::-1])
        values.append(list(lam[::-1]))
    return data, stamps, bounds, list(stamps), np.vstack(scores), {"eigenvalues": values}


def test_ipca_check_passes_exact_pca(ipca_case):
    assert checks.ipca_problems(*ipca_case) == []


def test_ipca_check_flags_a_rotated_chunk(ipca_case):
    data, stamps, bounds, out_stamps, scores, sidecar = ipca_case
    lo, hi = bounds[1]
    scores = scores.copy()
    scores[lo:hi] = rotate(scores[lo:hi], 0, 1, 1e-3)
    problems = checks.ipca_problems(data, stamps, bounds, out_stamps, scores, sidecar)
    assert len(problems) == 1 and problems[0].startswith("chunk 1:")


def test_ipca_check_flags_wrong_sidecar_eigenvalues(ipca_case):
    data, stamps, bounds, out_stamps, scores, sidecar = ipca_case
    sidecar = {"eigenvalues": [list(v) for v in sidecar["eigenvalues"]]}
    sidecar["eigenvalues"][2][3] *= 1.001
    assert checks.ipca_problems(data, stamps, bounds, out_stamps, scores, sidecar)


def test_ipca_check_flags_timestamps_and_row_count(ipca_case):
    data, stamps, bounds, out_stamps, scores, sidecar = ipca_case
    swapped = out_stamps[1:2] + out_stamps[:1] + out_stamps[2:]
    assert checks.ipca_problems(data, stamps, bounds, swapped, scores, sidecar)
    assert checks.ipca_problems(data, stamps, bounds, out_stamps[:-1], scores[:-1], sidecar)


def test_ipca_check_on_the_program(tmp_path):
    per, days = workloads.IPCA_ROWS_PER_DAY, 3
    data = workloads.geometric_gaussian(np.random.default_rng(4), per * days, workloads.IPCA_P)
    stamps = workloads.trading_minutes(days, per)
    bounds = [(d * per, (d + 1) * per) for d in range(days)]
    workloads.write_csv(tmp_path / "in.csv", data, stamps)
    out = tmp_path / "out.csv"
    assert cli.main(["ipca", str(tmp_path / "in.csv"), "--chunk-spec", "by=day", "--output", str(out)]) == 0
    out_stamps, scores = checks.read_scores_csv(out)
    sidecar = checks.read_json(tmp_path / "out.json")
    assert checks.ipca_problems(data, stamps, bounds, out_stamps, scores, sidecar) == []


# ---------------------------------------------------------------------------
# alpha-grid

@pytest.fixture(scope="module")
def alpha_case():
    x = workloads.bekk_series(np.random.default_rng(6), 300, 3)
    grid = np.array([0.9, 0.95, 0.98])
    return x, grid, checks.loglik_grid(x, grid, 30)


def test_loglik_grid_matches_the_program(alpha_case):
    x, grid, expected = alpha_case
    program = np.array([ewm_loglik(x, a, burn_in=30) for a in grid])
    assert np.max(np.abs(program - expected) / np.abs(expected)) <= checks.LOGLIK_RTOL


def test_alpha_check_passes_the_right_curve(alpha_case):
    x, grid, expected = alpha_case
    best = float(grid[np.argmax(expected)])
    assert checks.alpha_problems(grid, expected, grid, expected.copy(), best, {"alpha": best}) == []


def test_alpha_check_flags_a_wrong_value(alpha_case):
    x, grid, expected = alpha_case
    best = float(grid[np.argmax(expected)])
    curve = expected.copy()
    curve[0] *= 1 + 1e-8
    assert checks.alpha_problems(grid, expected, grid, curve, best, {"alpha": best})


def test_alpha_check_flags_a_wrong_argmax_or_grid(alpha_case):
    x, grid, expected = alpha_case
    best = float(grid[np.argmax(expected)])
    other = float(grid[np.argmin(expected)])
    assert checks.alpha_problems(grid, expected, grid, expected, other, {"alpha": best})
    assert checks.alpha_problems(grid, expected, grid, expected, best, {"alpha": other})
    assert checks.alpha_problems(grid, expected, grid + 1e-3, expected, best, {"alpha": best})
