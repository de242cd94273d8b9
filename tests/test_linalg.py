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
)
from streampca.refine import estimate_eigenvalues

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
    d = np.array([2.0, -1.0, 7.0, 0.0, 7.0, 3.5, -4.0])
    basis = jacobi_eigh(np.diag(d))
    order = np.argsort(-d, kind="stable")
    assert np.array_equal(basis.values, d[order])
    # an untouched identity, columns permuted: no rotation ran
    assert np.array_equal(basis.vectors, np.eye(7)[:, order])


def test_jacobi_2x2_analytic():
    basis = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    assert basis.values == pytest.approx([3.0, 1.0], abs=1e-14)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    # up to per-column sign
    for j in range(2):
        assert np.abs(basis.vectors[:, j]) == pytest.approx(np.abs(expected[:, j]), abs=1e-14)


def _residuals(a, basis):
    res = frobenius_norm(a @ basis.vectors - basis.vectors * basis.values) / frobenius_norm(a)
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


def test_jacobi_finite_input_with_overflowing_norm_is_named():
    # (A + A^T)/2 of this finite A used to overflow first and be refused as non-finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            OverflowError,
            match=r"^Jacobi eigensolver: the Frobenius norm of the 2 x 2 input overflows",
        ):
            jacobi_eigh(np.full((2, 2), 1e308))


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [-np.inf, 1.0]]),
        np.full((2, 2), 1e308),
        1e155 * np.eye(3),
        np.ones((2, 3)),
        np.ones(3),
    ],
    ids=["nan", "inf", "overflowing-entries", "overflowing-norm", "rectangular", "1-d"],
)
def test_jacobi_and_the_kernel_refuse_the_same_raw_matrix(a):
    with pytest.raises((ValueError, OverflowError)) as jacobi:
        jacobi_eigh(a)
    with pytest.raises((ValueError, OverflowError)) as kernel:
        estimate_eigenvalues(a, np.eye(len(a)))
    assert type(jacobi.value) is type(kernel.value)


def test_jacobi_rejects_a_rectangular_or_empty_matrix():
    for a in (np.ones((2, 3)), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="square and non-empty"):
            jacobi_eigh(a)


@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_jacobi_of_the_transpose_is_bit_identical(seed, dim):
    # sweeps run on (A + A^T)/2, the same bits for A and A^T
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    a, b = jacobi_eigh(m), jacobi_eigh(m.T)
    assert np.array_equal(a.vectors, b.vectors) and np.array_equal(a.values, b.values)


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


@pytest.mark.parametrize("n", range(2, 14))
def test_round_robin_rotates_every_pair_once_per_sweep(n):
    rounds = linalg._round_robin(n)
    assert rounds.shape == (n - 1 + n % 2, n // 2, 2)
    for pairs in rounds:
        # disjoint within a round
        assert len(set(pairs.ravel().tolist())) == pairs.size
    every = sorted(map(tuple, rounds.reshape(-1, 2).tolist()))
    assert every == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("shape", ["dense", "near-diagonal"])
def test_jacobi_p100(shape):
    rng = np.random.default_rng(100)
    m = rng.standard_normal((100, 100))
    noise = (m + m.T) / 2.0
    if shape == "dense":
        a = noise
    else:
        a = np.diag(np.linspace(10.0, 1.0, 100)) + 1e-3 * noise
    basis = jacobi_eigh(a)
    res, orth = _residuals(a, basis)
    assert res <= 1e-12
    assert orth <= 1e-12
    assert np.all(np.diff(basis.values) <= 0.0)


@pytest.mark.parametrize("k", [10, 20, 40, 260, 300, 400])
def test_jacobi_of_a_power_of_two_multiple_scales_exactly(k):
    # the stop rule is relative to ||A||: c^2 A takes the rotations of A
    c2 = 2.0 ** (-2 * k)
    for seed in range(20):
        a, _ = well_separated_symmetric(3 + seed % 8, seed)
        unit, scaled = jacobi_eigh(a), jacobi_eigh(c2 * a)
        assert np.array_equal(scaled.vectors, unit.vectors)
        assert np.array_equal(scaled.values, c2 * unit.values)


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


def test_sample_covariance_names_an_overflowing_moment():
    # the product used to warn of an overflow in matmul and return infinities
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^sample covariance of the 3 x 2 input overflows "
                           r"float64 \(largest entry 1.000e\+160\); rescale the data$"):
            sample_covariance([[1.0, 2.0], [1e160, 3.0], [5.0, 6.0]])


def test_sample_covariance_names_data_whose_squares_all_underflow():
    # 400 x 3, spectrum (9, 1, 0.09): times 1e-170 every square is subnormal or
    # zero, and the covariance used to come back as zeros (times 1e-160, 0.14 %
    # off), with no error
    x = np.random.default_rng(0).standard_normal((400, 3)) * [3.0, 1.0, 0.3]
    for c in (1e-170, 1e-160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"^sample covariance of the 400 x 3 "
                               r"input underflows float64 \(largest centred entry .*e-1[56]\d\); "
                               r"rescale the data$"):
                sample_covariance(c * x)
    # times 2^-400 the squares are normal: the covariance is 2^-800 times the unit one
    _, unit = sample_covariance(x)
    assert np.array_equal(sample_covariance(2.0**-400 * x)[1], 2.0**-800 * unit)


def test_sample_covariance_accepts_constant_columns():
    # centred entries that are exactly 0 are not an underflow
    means, q = sample_covariance(np.column_stack([np.full(5, 2.0), np.full(5, -7.0)]))
    assert np.array_equal(means, [2.0, -7.0]) and np.array_equal(q, np.zeros((2, 2)))


def test_sample_covariance_zeroes_a_constant_column_whose_mean_does_not_round_back():
    # mean() of seven 0.1s is not 0.1: its residue used to give 2.2e-34 in every entry
    assert np.full(7, 0.1).mean() != 0.1
    means, q = sample_covariance(np.full((7, 2), 0.1))
    assert np.array_equal(means, [0.1, 0.1]) and np.array_equal(q, np.zeros((2, 2)))
    x = np.column_stack([np.full(7, 0.1), np.arange(7.0)])
    q = sample_covariance(x)[1]
    assert np.array_equal(q[0], [0.0, 0.0]) and np.array_equal(q[:, 0], [0.0, 0.0])
    assert q[1, 1] == 28.0 / 6.0


def test_sample_covariance_gives_a_constant_column_whose_sum_overflows_its_value():
    # mean() of two 1e308s is inf; zeroing the centred entries after the fact
    # returned that inf as the mean, and transform then scored -inf and nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, q = sample_covariance(np.full((2, 2), 1e308))
    assert np.array_equal(means, [1e308, 1e308]) and np.array_equal(q, np.zeros((2, 2)))


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
    assert basis.values.min() >= -1e-12 * frobenius_norm(q)


def test_sample_covariance_accepts_all_constant_tables_near_the_underflow():
    # the mean of a constant column need not round back to its value; the
    # residue's square underflows, which used to refuse most of these tables
    rng = np.random.default_rng(0)
    for _ in range(300):
        n, p = rng.choice([3, 7, 10]), rng.integers(1, 5)
        x = np.tile(rng.uniform(1.0, 10.0, p) * 1e-200, (n, 1))
        _, q = sample_covariance(x)
        assert np.array_equal(q, np.zeros((p, p)))


def test_sample_covariance_refusal_ignores_a_constant_columns_residue():
    # 5.1 does not come back from its mean: the residue of 1.8e-15 used to hide
    # the underflow of the other column, while 5.0 did not
    noise = 1e-170 * np.random.default_rng(0).standard_normal(200)
    for constant in (5.0, 5.1):
        x = np.column_stack([np.full(200, constant), noise])
        with pytest.raises(FloatingPointError, match=r"^sample covariance of the 200 x 2 input "
                           r"underflows float64 \(largest centred entry .*e-170\)"):
            sample_covariance(x)
