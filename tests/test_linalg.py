import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampca import linalg
from streampca.linalg import (
    as_matrix,
    as_vector,
    fix_column_signs,
    frobenius_norm,
    jacobi_eigh,
    sample_covariance,
    symmetrize,
)

from conftest import well_separated_symmetric


# ---------------------------------------------------------------------------
# frobenius_norm


def test_frobenius_identity_2x2():
    assert frobenius_norm(np.eye(2)) == np.sqrt(2.0)


def test_frobenius_zero_matrix():
    assert frobenius_norm(np.zeros((3, 4))) == 0.0


def test_frobenius_three_four_five():
    assert frobenius_norm([[3.0, 4.0], [0.0, 0.0]]) == 5.0


# ---------------------------------------------------------------------------
# validation helpers


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan]])


def test_as_matrix_rejects_1d():
    with pytest.raises(ValueError, match="2-dimensional"):
        as_matrix([1.0, 2.0])


def test_as_vector_rejects_inf():
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([np.inf])


def test_symmetrize_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        symmetrize(np.ones((2, 3)))


@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
@settings(max_examples=50)
def test_symmetrize_transpose_bit_identical(seed, dim):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    a = symmetrize(m)
    b = symmetrize(m.T)
    assert np.array_equal(a, b)
    assert np.array_equal(a, a.T)


# ---------------------------------------------------------------------------
# fix_column_signs


def test_fix_column_signs_flips_negative_lead():
    v = np.array([[-0.8, 0.6], [0.6, 0.8]])
    fixed = fix_column_signs(v)
    assert np.array_equal(fixed[:, 0], [0.8, -0.6])
    assert np.array_equal(fixed[:, 1], v[:, 1])


def test_fix_column_signs_tie_breaks_to_lowest_index():
    v = np.array([[-0.5], [0.5]])
    assert np.array_equal(fix_column_signs(v), [[0.5], [-0.5]])


# ---------------------------------------------------------------------------
# jacobi_eigh


def test_jacobi_diagonal_is_exact():
    basis = jacobi_eigh(np.diag([3.0, 1.0]))
    assert np.array_equal(basis.values, [3.0, 1.0])
    assert np.array_equal(basis.vectors, np.eye(2))


def test_jacobi_2x2_analytic():
    basis = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    assert basis.values == pytest.approx([3.0, 1.0], abs=1e-14)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    # up to per-column sign
    for j in range(2):
        assert np.abs(basis.vectors[:, j]) == pytest.approx(np.abs(expected[:, j]), abs=1e-14)


def _residuals(a, basis):
    scale = max(1.0, frobenius_norm(a))
    res = frobenius_norm(a @ basis.vectors - basis.vectors * basis.values) / scale
    orth = frobenius_norm(basis.vectors.T @ basis.vectors - np.eye(a.shape[0]))
    return res, orth


def test_jacobi_random_8x8_residual_checks():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8))
    a = (m + m.T) / 2.0
    basis = jacobi_eigh(a)
    res, orth = _residuals(a, basis)
    assert res <= 1e-12
    assert orth <= 1e-12


@given(st.integers(0, 2**31 - 1), st.integers(2, 30))
@settings(max_examples=25, deadline=None)
def test_jacobi_residual_property(seed, dim):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    a = (m + m.T) / 2.0
    basis = jacobi_eigh(a)
    res, orth = _residuals(a, basis)
    assert res <= 1e-12
    assert orth <= 1e-12
    assert np.all(np.diff(basis.values) <= 0.0)


def test_jacobi_deterministic():
    a, _ = well_separated_symmetric(11, seed=5)
    b1 = jacobi_eigh(a)
    b2 = jacobi_eigh(a)
    assert np.array_equal(b1.vectors, b2.vectors)
    assert np.array_equal(b1.values, b2.values)


def test_jacobi_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    a, _ = well_separated_symmetric(6, seed=9)
    with pytest.raises(RuntimeError, match="did not converge"):
        jacobi_eigh(a)


def test_jacobi_overflowing_norm_raises_before_any_warning():
    a, _ = well_separated_symmetric(5, seed=3)
    # 1e155 * A: every entry is finite, ||A||_F is not; the stopping test used
    # to pass at once and return the diagonal as the eigenvalues
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="Frobenius norm of the 5 x 5 input overflows"):
            jacobi_eigh(1e155 * a)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 30),
    st.floats(-150.0, 150.0),
    st.sampled_from(["dense", "clustered", "split"]),
)
@settings(max_examples=60, deadline=None)
def test_jacobi_fresh_eigenbasis_contract(seed, dim, exponent, shape):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    noise = (m + m.T) / 2.0
    if shape == "dense":
        a = noise
    elif shape == "clustered":
        a = np.diag(1.0 + 1e-8 * rng.standard_normal(dim)) + 1e-14 * noise
    else:
        a = np.diag(10.0 ** rng.uniform(-12.0, 0.0, dim)) + 1e-9 * noise
    a = 10.0**exponent * a
    basis = jacobi_eigh(a)
    res, orth = _residuals(a, basis)
    assert res <= 1e-12
    assert orth <= 1e-12
    assert np.all(np.diff(basis.values) <= 0.0)
    lead = np.argmax(np.abs(basis.vectors), axis=0)
    assert np.all(basis.vectors[lead, np.arange(dim)] > 0.0)


def test_jacobi_dim_one():
    basis = jacobi_eigh([[4.0]])
    assert np.array_equal(basis.values, [4.0])
    assert np.array_equal(basis.vectors, [[1.0]])


# ---------------------------------------------------------------------------
# sample_covariance


def test_sample_covariance_two_rows():
    means, q = sample_covariance([[1.0], [3.0]])
    assert np.array_equal(means, [2.0])
    assert np.array_equal(q, [[2.0]])


def test_sample_covariance_constant_column_is_zero():
    x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    _, q = sample_covariance(x)
    assert q[0, 0] == 0.0


def test_sample_covariance_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4))
    means, q = sample_covariance(x)
    n, p = x.shape
    brute = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for k in range(n):
                acc += (x[k, i] - means[i]) * (x[k, j] - means[j])
            brute[i, j] = acc / (n - 1)
    assert np.max(np.abs(q - brute)) <= 1e-12


def test_sample_covariance_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2 rows"):
        sample_covariance([[1.0, 2.0]])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_sample_covariance_row_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, 3))
    perm = rng.permutation(20)
    m1, q1 = sample_covariance(x)
    m2, q2 = sample_covariance(x[perm])
    assert m1 == pytest.approx(m2, abs=1e-12)
    assert np.max(np.abs(q1 - q2)) <= 1e-12


def test_sample_covariance_psd_up_to_roundoff():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 5))
    _, q = sample_covariance(x)
    basis = jacobi_eigh(q)
    assert basis.values.min() >= -1e-12 * max(1.0, frobenius_norm(q))
