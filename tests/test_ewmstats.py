import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampca import ewmstats
from streampca.ewmstats import (
    SingularCovarianceError,
    default_alpha_grid,
    estimate_alpha,
    ewm_init,
    ewm_loglik,
    ewm_update,
)
from streampca.linalg import frobenius_norm, jacobi_eigh
from streampca.synth import stationary_gaussian, volatility_cluster


def run_recursion(x, alpha):
    """Fold the module's update over rows; returns the list of states."""
    states = [ewm_init(x[0], alpha)]
    for row in x[1:]:
        states.append(ewm_update(states[-1], row))
    return states


def brute_force_moments(x, alpha):
    """Unrolled weighted sums: m_t from the explicit convex weights, then
    S_t = sum_{k=2..t} (1 - alpha) alpha^(t-k) d_k d_k^T with d_k = x_k - m_k."""
    n, p = x.shape
    means = np.empty((n, p))
    for t in range(1, n + 1):
        w = np.empty(t)
        w[0] = alpha ** (t - 1)
        for k in range(2, t + 1):
            w[k - 1] = (1.0 - alpha) * alpha ** (t - k)
        means[t - 1] = w @ x[:t]
    covs = np.zeros((n, p, p))
    for t in range(2, n + 1):
        acc = np.zeros((p, p))
        for k in range(2, t + 1):
            d = x[k - 1] - means[k - 1]
            acc += (1.0 - alpha) * alpha ** (t - k) * np.outer(d, d)
        covs[t - 1] = acc
    return means, covs


# ---------------------------------------------------------------------------
# init / update


def test_init_scalar_example():
    state = ewm_init([5.0], 0.9)
    assert np.array_equal(state.mean, [5.0])
    assert np.array_equal(state.cov, [[0.0]])
    assert state.count == 1


def test_init_covariance_exactly_zero():
    state = ewm_init([1.0, -2.0, 3.0], 0.5)
    assert np.array_equal(state.cov, np.zeros((3, 3)))


def test_typical_practice_alpha_accepted():
    assert ewm_init([0.0], 0.9305).alpha == 0.9305


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ewm_init([1.0], alpha)


def test_update_scalar_example():
    # p=1, alpha=0.5: x1=1 then x=3 -> m=2, S=(1-a)(3-2)^2=0.5
    state = ewm_update(ewm_init([1.0], 0.5), [3.0])
    assert np.array_equal(state.mean, [2.0])
    assert np.array_equal(state.cov, [[0.5]])
    assert state.count == 2


def test_update_with_mean_keeps_state():
    state = ewm_init([2.5, -1.0], 0.9)
    new = ewm_update(state, state.mean)
    assert new.mean == pytest.approx(state.mean, abs=1e-15)
    assert np.max(np.abs(new.cov)) <= 1e-30


def test_update_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        ewm_update(ewm_init([1.0], 0.5), [1.0, 2.0])


def test_update_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ewm_update(ewm_init([1.0], 0.5), [np.nan])


def test_recursion_matches_brute_force_200_steps():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 3))
    alpha = 0.9
    states = run_recursion(x, alpha)
    _, covs = brute_force_moments(x, alpha)
    final = states[-1].cov
    assert frobenius_norm(final - covs[-1]) <= 1e-12 * max(1.0, frobenius_norm(covs[-1]))


@given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.99), st.integers(2, 50))
@settings(max_examples=30, deadline=None)
def test_recursion_matches_brute_force_property(seed, alpha, length):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((length, 2))
    states = run_recursion(x, alpha)
    means, covs = brute_force_moments(x, alpha)
    for t in (1, length // 2, length - 1):
        rel = max(1.0, frobenius_norm(covs[t]))
        assert np.max(np.abs(states[t].mean - means[t])) <= 1e-12
        assert frobenius_norm(states[t].cov - covs[t]) <= 1e-12 * rel


def test_covariance_stays_psd_along_stream():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((120, 3))
    for state in run_recursion(x, 0.93)[1:]:
        values = jacobi_eigh(state.cov).values
        assert values.min() >= -1e-12 * max(1.0, frobenius_norm(state.cov))


def test_mean_is_convex_combination():
    alpha, t = 0.8, 12
    # weights: alpha^(t-1) on x1, (1-alpha) alpha^(t-k) on x_k
    w = np.array([alpha ** (t - 1)] + [(1 - alpha) * alpha ** (t - k) for k in range(2, t + 1)])
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all((w >= 0.0) & (w <= 1.0))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((t, 1))
    states = run_recursion(x, alpha)
    assert states[-1].mean[0] == pytest.approx(float(w @ x[:, 0]), abs=1e-13)


# ---------------------------------------------------------------------------
# ewm_loglik


def test_loglik_constant_tail_reduces_to_logdet_sum():
    # A single early deviation, identical observations afterwards: past the
    # burn-in the prediction errors have decayed to ~alpha^t ~ 1e-5-and-falling
    # quadratic terms, so the value reduces to -1/2 sum ln S_(t-1) over the
    # included range (computed by an independent scalar recursion below).
    alpha, n, burn = 0.7, 40, 3
    x = np.full((n, 1), 2.5)
    x[1, 0] = 3.5
    value = ewm_loglik(x, alpha, burn_in=burn)
    m, s = x[0, 0], 0.0
    expected = 0.0
    for t in range(2, n + 1):
        x_t = x[t - 1, 0]
        if t > burn:
            expected += np.log(s) + (x_t - m) ** 2 / s
        m_new = (1 - alpha) * x_t + alpha * m
        d = x_t - m_new
        s = (1 - alpha) * d * d + alpha * s
        m = m_new
    assert value == pytest.approx(-0.5 * expected, rel=1e-12)


def test_loglik_constant_data_is_singular():
    x = np.full((30, 1), 1.0)
    with pytest.raises(SingularCovarianceError, match="t=4"):
        ewm_loglik(x, 0.9, burn_in=3)


def test_loglik_finite_for_two_alphas():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 2))
    for alpha in (0.9, 0.97):
        assert np.isfinite(ewm_loglik(x, alpha))


def test_loglik_burn_in_validation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 3))
    with pytest.raises(ValueError, match="burn_in"):
        ewm_loglik(x, 0.9, burn_in=3)


@pytest.mark.parametrize("burn_in", [None, 40, 41])
def test_burn_in_that_scores_no_row_is_refused(burn_in):
    # 40 x 4: the default burn-in of 10 p = 40 and any larger one drop every
    # term t = 2..40, which used to return a curve of -0
    x = np.random.default_rng(4).standard_normal((40, 4))
    expected = 40 if burn_in is None else burn_in
    message = f"burn_in = {expected} leaves no observation to score.*n = 40"
    with pytest.raises(ValueError, match=message):
        ewm_loglik(x, 0.9, burn_in=burn_in)
    with pytest.raises(ValueError, match=message):
        estimate_alpha(x, [0.8, 0.9], burn_in=burn_in)


def test_burn_in_one_below_n_scores_the_last_row():
    x = np.random.default_rng(4).standard_normal((40, 4))
    value = ewm_loglik(x, 0.9, burn_in=39)
    assert value != 0.0
    assert value == pytest.approx(loop_loglik(x, 0.9, 39), rel=1e-12)


def test_loglik_default_burn_in_is_ten_p():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((120, 2))
    assert ewm_loglik(x, 0.9) == ewm_loglik(x, 0.9, burn_in=20)


def test_loglik_order_sensitive():
    rng = np.random.default_rng(5)
    x = volatility_cluster(300, 2, persistence=0.95, seed=5)
    permuted = x[rng.permutation(300)]
    assert ewm_loglik(x, 0.9) != ewm_loglik(permuted, 0.9)


def test_loglik_singular_names_observation():
    # rank-1 data: S_t never reaches full rank, first included term fails
    t_axis = np.arange(60, dtype=float) + 1.0
    x = np.column_stack([t_axis, 2.0 * t_axis])
    with pytest.raises(SingularCovarianceError) as excinfo:
        ewm_loglik(x, 0.9, burn_in=5)
    assert excinfo.value.t == 6


RANK_ONE_ALPHAS = [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99]


def rank_one(n=60):
    t_axis = np.arange(n, dtype=float) + 1.0
    return np.column_stack([t_axis, 2.0 * t_axis])


@pytest.mark.parametrize("alpha", RANK_ONE_ALPHAS)
def test_loglik_rank_one_fails_at_first_scored_row(alpha):
    # Cholesky alone lets some of these decays through to t = 7 or 9, on a
    # pivot of rounding size; the relative pivot test stops every one at t = 6
    with pytest.raises(SingularCovarianceError) as excinfo:
        ewm_loglik(rank_one(), alpha, burn_in=5)
    assert (excinfo.value.t, excinfo.value.alpha) == (6, alpha)


@pytest.mark.parametrize("lo", range(len(RANK_ONE_ALPHAS)))
def test_grid_rank_one_names_lowest_decay_at_first_scored_row(lo):
    # grids where the batched Cholesky fails (cold path) and where it goes
    # through and only the pivot test flags the decays
    grid = RANK_ONE_ALPHAS[lo:]
    with pytest.raises(SingularCovarianceError) as excinfo:
        estimate_alpha(rank_one(), grid, burn_in=5)
    assert (excinfo.value.t, excinfo.value.alpha) == (6, grid[0])


def loop_loglik(x, alpha, burn_in):
    """Row-by-row reference: fold ewm_update and factor each S_{t-1} alone."""
    state = ewm_init(x[0], alpha)
    total = 0.0
    for t in range(2, x.shape[0] + 1):
        if t > burn_in:
            chol = np.linalg.cholesky(state.cov)
            y = np.linalg.solve(chol, x[t - 1] - state.mean)
            total += 2.0 * np.sum(np.log(np.diag(chol))) + y @ y
        state = ewm_update(state, x[t - 1])
    return -0.5 * total


def test_grid_matches_row_by_row_reference():
    # the batched pass sums in another order than the loop: allow a few
    # hundred ulps of the total
    x = volatility_cluster(400, 3, persistence=0.95, seed=12)
    grid = np.array([0.6, 0.85, 0.9, 0.95, 0.99])
    _, curve = estimate_alpha(x, grid, burn_in=30)
    expected = np.array([loop_loglik(x, a, 30) for a in grid])
    assert curve == pytest.approx(expected, rel=1e-13, abs=0.0)


def zero_tail(n=1500):
    # p = 1, ten random rows then zeros: S_t decays by alpha per row and
    # underflows to exactly 0 near t = 1085 for alpha = 0.5, but not for
    # alpha = 0.99 within these rows
    x = np.zeros((n, 1))
    x[:10, 0] = np.random.default_rng(0).standard_normal(10)
    return x


def test_grid_singular_names_observation_and_decay():
    x = zero_tail()
    with pytest.raises(SingularCovarianceError) as alone:
        ewm_loglik(x, 0.5, burn_in=5)
    assert np.isfinite(ewm_loglik(x, 0.99, burn_in=5))
    with pytest.raises(SingularCovarianceError, match=r"\(alpha=0\.5\)") as excinfo:
        estimate_alpha(x, [0.5, 0.99], burn_in=5)
    assert excinfo.value.t == alone.value.t > 1000
    assert excinfo.value.alpha == 0.5


def test_decay_too_low_for_p_explains_itself():
    # alpha^p < p eps: at alpha = 0.5 only ~46 recent rows weigh more than
    # p eps of the newest, fewer than p = 48, so every scored row is singular
    x = stationary_gaussian(150, 48, seed=2)
    with pytest.raises(SingularCovarianceError) as excinfo:
        estimate_alpha(x, [0.5, 0.9], burn_in=60)
    assert (excinfo.value.t, excinfo.value.alpha) == (61, 0.5)
    assert str(excinfo.value) == (
        "moving covariance matrix is singular at observation t=61 (alpha=0.5); at this "
        "decay only about 46 recent rows weigh more than p*eps of the newest, fewer than "
        "the p=48 columns: raise the grid's lowest decay (alpha^p >= p*eps needs "
        "alpha >= 0.512)"
    )


def test_singular_at_an_ample_decay_adds_no_clause():
    with pytest.raises(SingularCovarianceError) as excinfo:
        ewm_loglik(rank_one(), 0.5, burn_in=5)
    assert str(excinfo.value).endswith("(alpha=0.5)")


def test_grid_singular_tie_names_lowest_index():
    # constant data: every covariance is exactly 0 at the first scored row
    x = np.full((30, 2), 1.0)
    with pytest.raises(SingularCovarianceError) as excinfo:
        estimate_alpha(x, [0.8, 0.9], burn_in=5)
    assert (excinfo.value.t, excinfo.value.alpha) == (6, 0.8)


def test_blocked_grid_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((120, 2))
    grid = [0.8, 0.85, 0.9, 0.95, 0.97]
    _, whole = estimate_alpha(x, grid)
    # two decays per block: blocks of 2, 2 and 1
    monkeypatch.setattr(ewmstats, "_GRID_BLOCK_BYTES", 2 * 4 * 8 * 2 * 2)
    _, blocked = estimate_alpha(x, grid)
    assert np.array_equal(blocked, whole)
    for g, v in zip(grid, blocked):
        assert v == ewm_loglik(x, g)


def test_blocked_grid_raises_like_unblocked(monkeypatch):
    x = zero_tail()
    grid = [0.5, 0.5, 0.99, 0.99, 0.995]
    with pytest.raises(SingularCovarianceError) as whole:
        estimate_alpha(x, grid, burn_in=5)
    monkeypatch.setattr(ewmstats, "_GRID_BLOCK_BYTES", 1)
    with pytest.raises(SingularCovarianceError) as blocked:
        estimate_alpha(x, grid, burn_in=5)
    assert (blocked.value.t, blocked.value.alpha) == (whole.value.t, whole.value.alpha)
    assert str(blocked.value) == str(whole.value)


def rows_per_block(monkeypatch, rows, g, p):
    """Set the row budget so that a block of g decays at dimension p holds
    ``rows`` rows."""
    monkeypatch.setattr(ewmstats, "_ROW_BLOCK_BYTES", rows * 8 * g * p * p)


def test_row_blocks_are_bit_identical(monkeypatch):
    x = volatility_cluster(300, 3, persistence=0.95, seed=13)
    grid = [0.8, 0.85, 0.9, 0.95, 0.97]
    curves = []
    for rows in (1, 3, x.shape[0]):
        rows_per_block(monkeypatch, rows, len(grid), 3)
        curves.append(estimate_alpha(x, grid, burn_in=30)[1])
        # ewm_loglik is the same path with G = 1 and as many rows per block
        assert [ewm_loglik(x, g, burn_in=30) for g in grid] == curves[-1].tolist()
    assert all(np.array_equal(c, curves[0]) for c in curves[1:])


@pytest.mark.parametrize("rows", [1, 9, 10, 59])
def test_overflowing_moment_is_named_at_its_observation(monkeypatch, rows):
    # 1e160 at row 41: its likelihood term and every moment from S_41 on
    # overflow.  With 10 rows per block, row 41 closes a block, whose check
    # must already see S_41.  This used to warn and then report a singular
    # covariance at t = 42.
    x = np.random.default_rng(0).standard_normal((60, 2))
    x[40, 0] = 1e160
    grid = [0.9, 0.95]
    rows_per_block(monkeypatch, rows, len(grid), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^observation 41: moving covariance overflows "
                           r"float64 \(largest entry 1.000e\+160\); rescale the data$"):
            estimate_alpha(x, grid, burn_in=5)


def rank_drop():
    # p = 2, the second column a multiple of the first from row 61 on: the
    # full-rank past decays away, and for alpha = 0.5 the relative pivot test
    # fails at t = 114, where Cholesky still goes through
    x = np.random.default_rng(3).standard_normal((260, 2))
    x[60:, 1] = 2.0 * x[60:, 0]
    return x


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "data, grid, factorizable",
    [(zero_tail, [0.5, 0.5, 0.99, 0.99, 0.995], False), (rank_drop, [0.5, 0.6, 0.9], True)],
    ids=["cholesky-fails", "pivot-test"],
)
def test_singular_row_anywhere_in_a_block_raises_as_one_row_blocks(
    monkeypatch, data, grid, factorizable, position
):
    x = data()
    rows_per_block(monkeypatch, 1, len(grid), x.shape[1])
    with pytest.raises(SingularCovarianceError) as alone:
        estimate_alpha(x, grid, burn_in=5)
    t = alone.value.t
    state = run_recursion(x[: t - 1], alone.value.alpha)[-1]
    if factorizable:
        np.linalg.cholesky(state.cov)
    else:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(state.cov)
    # blocks start at t = 2; this sets where t falls in its block
    rows = {"first": t - 2, "middle": t + 20, "last": t - 1}[position]
    index = (t - 2) % rows
    assert {"first": index == 0, "middle": 0 < index < rows - 1, "last": index == rows - 1}[
        position
    ]
    rows_per_block(monkeypatch, rows, len(grid), x.shape[1])
    with pytest.raises(SingularCovarianceError) as blocked:
        estimate_alpha(x, grid, burn_in=5)
    assert (blocked.value.t, blocked.value.alpha) == (t, alone.value.alpha)
    assert str(blocked.value) == str(alone.value)


@pytest.mark.parametrize(
    "singular",
    [np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0 + np.finfo(float).eps]])],
    ids=["cholesky-fails", "pivot-test"],
)
def test_score_rows_names_the_first_row_then_its_lowest_decay(singular):
    # three rows of three decays: row 1 fails at decay 2, row 2 at decay 0
    covs = np.tile(np.eye(2), (3, 3, 1, 1))
    covs[1, 2] = covs[2, 0] = singular
    total = np.zeros(3)
    tiny = 2 * np.finfo(float).eps
    assert ewmstats._score_rows(covs, np.ones((3, 3, 2)), total, tiny) == (1, 2, True)


def test_score_rows_names_an_overflowing_term_before_a_later_singular_one():
    # row 0 overflows at decay 1, row 1 is singular at decay 0: row 0 comes first,
    # and nothing is added to the total
    covs = np.tile(np.eye(2), (2, 3, 1, 1))
    covs[1, 0] = 0.0
    errors = np.ones((2, 3, 2))
    errors[0, 1] = 1e160
    total = np.arange(3.0)
    tiny = 2 * np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ewmstats._score_rows(covs, errors, total, tiny) == (0, 1, False)
    assert np.array_equal(total, np.arange(3.0))


def overflow_term():
    # 1e-5-scale noise, then x_60 = 1e150: e^T S^-1 e at t = 60 is near
    # 1e150^2 / 1e-10, past float64, while every moment stays finite
    x = 1e-5 * np.random.default_rng(0).standard_normal((60, 2))
    x[59, 0] = 1e150
    return x


TERM_OVERFLOW = (r"^log-likelihood overflows float64 at observation t=60 \(alpha=0\.9\): "
                 r"the terms e\^T S\^-1 e .* which no rescaling of the data changes$")


@pytest.mark.parametrize("rows", [1, 7, 59])
def test_overflowing_likelihood_term_is_named_at_its_observation(monkeypatch, rows):
    # this used to warn, return a curve of -inf and pick the grid's first decay
    grid = [0.9, 0.95]
    rows_per_block(monkeypatch, rows, len(grid), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=TERM_OVERFLOW):
            estimate_alpha(overflow_term(), grid, burn_in=5)
        with pytest.raises(OverflowError, match=TERM_OVERFLOW):
            ewm_loglik(overflow_term(), 0.9, burn_in=5)


def test_score_rows_names_the_row_where_the_sum_overflows():
    # e^T S^-1 e = 1e308 in both rows: each term is finite, their sum is not
    covs = np.tile(np.eye(2), (2, 1, 1, 1))
    errors = np.tile([1e154, 0.0], (2, 1, 1))
    total = np.zeros(1)
    tiny = 2 * np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ewmstats._score_rows(covs, errors, total, tiny) == (1, 0, False)


def forward_substitute(chol, e):
    """L^{-1} e for a stack of factors ``chol`` (..., p, p), through the
    module's substitution on the layout that ``_terms`` gives it."""
    p = e.shape[-1]
    y = e.reshape(-1, p).T.copy()
    ewmstats._forward_substitute(np.ascontiguousarray(chol.reshape(-1, p, p).T), y)
    return y.T.reshape(e.shape)


def well_conditioned(rng, stack, p):
    """A stack of covariances with eigenvalues in [1, 4]."""
    q = np.linalg.qr(rng.standard_normal(stack + (p, p)))[0]
    values = rng.uniform(1.0, 4.0, stack + (1, p))
    return (q * values) @ np.swapaxes(q, -1, -2)


@pytest.mark.parametrize("p", [1, 2, 5, 9, 16])
@pytest.mark.parametrize("stack", [(1,), (7,), (3, 4)])
def test_forward_substitution_matches_solve(p, stack):
    rng = np.random.default_rng(100 * p + len(stack))
    chol = np.linalg.cholesky(well_conditioned(rng, stack, p))
    e = rng.standard_normal(stack + (p,))
    y = forward_substitute(chol, e)
    expected = np.linalg.solve(chol, e[..., None])[..., 0]
    err = np.linalg.norm(y - expected, axis=-1)
    assert np.all(err <= 1e-13 * np.linalg.norm(expected, axis=-1))
    # each system's solution does not depend on the stack it sits in
    flat_chol, flat_e = chol.reshape(-1, p, p), e.reshape(-1, p)
    alone = [forward_substitute(c, v) for c, v in zip(flat_chol, flat_e)]
    assert np.array_equal(np.array(alone), y.reshape(-1, p))


@pytest.mark.parametrize("p", [9, 16])
def test_terms_of_a_stack_equal_each_matrix_scored_alone(p):
    # From p = 8 on numpy sums a contiguous row in unrolled partial sums, and
    # a strided axis in plain order: a sum across the stack's layout would
    # give a term other bits in a stack than alone.
    rng = np.random.default_rng(p)
    covs = well_conditioned(rng, (3, 4), p)
    errors = rng.standard_normal((3, 4, p))
    tiny = p * np.finfo(float).eps
    terms, singular = ewmstats._terms(covs.copy(), errors, tiny)  # overwrites its stack
    assert terms.shape == singular.shape == (3, 4) and not singular.any()
    for i, k in np.ndindex(3, 4):
        alone, flag = ewmstats._terms(covs[i, k], errors[i, k], tiny)
        assert alone == terms[i, k] and flag == singular[i, k]


# ---------------------------------------------------------------------------
# estimate_alpha


def test_single_point_grid():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((100, 2))
    alpha, curve = estimate_alpha(x, [0.9])
    assert alpha == 0.9
    assert curve.shape == (1,)


def test_curve_matches_grid_order():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100, 2))
    grid = [0.85, 0.9, 0.95]
    alpha, curve = estimate_alpha(x, grid)
    assert curve.shape == (3,)
    for g, v in zip(grid, curve):
        assert v == ewm_loglik(x, g)
    assert alpha in grid


def test_heteroskedastic_argmax_interior_and_reproducible():
    x = volatility_cluster(1200, 3, persistence=0.97, seed=7)
    grid = 0.80 + 0.01 * np.arange(20)
    a1, c1 = estimate_alpha(x, grid, burn_in=30)
    a2, c2 = estimate_alpha(x, grid, burn_in=30)
    assert a1 == a2
    assert np.array_equal(c1, c2)
    assert grid[0] < a1 < grid[-1]
    assert np.isfinite(c1).all()


def test_grid_validation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((60, 1))
    # NaN is out of range too, though it fails every comparison
    for bad in ([0.5, 1.5], [0.0, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="between 0 and 1"):
            estimate_alpha(x, bad)
    with pytest.raises(ValueError, match="ascending"):
        estimate_alpha(x, [0.9, 0.8])
    with pytest.raises(ValueError, match="non-empty"):
        estimate_alpha(x, [])


def test_default_grid_shape():
    grid = default_alpha_grid()
    assert grid[0] == 0.5
    assert grid[-1] == 0.999
    assert grid.shape == (500,)
    assert np.all(np.diff(grid) > 0.0)


def test_tie_breaks_to_lowest_index():
    # two identical grid points produce identical likelihoods; argmax -> first
    rng = np.random.default_rng(10)
    x = rng.standard_normal((80, 1))
    alpha, curve = estimate_alpha(x, [0.9, 0.9])
    assert alpha == 0.9
    assert curve[0] == curve[1]
