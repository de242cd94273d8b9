import numpy as np
import pytest

from streampca.ewmstats import ewm_init, ewm_update
from streampca.linalg import frobenius_norm, sample_covariance
from streampca.synth import (
    regime_switch,
    stationary_gaussian,
    volatility_cluster,
    well_separated_covariance,
)


def test_same_seed_same_data():
    a = stationary_gaussian(200, 4, seed=5)
    b = stationary_gaussian(200, 4, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stationary_gaussian(200, 4, seed=6))


def test_stationary_sample_covariance_near_target():
    n, p, seed = 20000, 4, 3
    x = stationary_gaussian(n, p, seed=seed)
    target = well_separated_covariance(p, seed)
    _, q = sample_covariance(x)
    # law of large numbers: O(1/sqrt(n)) relative error, generous constant
    rel = frobenius_norm(q - target) / frobenius_norm(target)
    assert rel <= 5.0 / np.sqrt(n)


def test_well_separated_spectrum_is_geometric():
    cov = well_separated_covariance(5, seed=1, ratio=3.0)
    values = np.linalg.eigvalsh(cov)[::-1]
    assert values == pytest.approx([81.0, 27.0, 9.0, 3.0, 1.0], rel=1e-9)


def test_regime_switch_segments_differ():
    x = regime_switch(3000, 4, [1000, 2000], seed=11)
    _, q1 = sample_covariance(x[:1000])
    _, q3 = sample_covariance(x[2000:])
    assert frobenius_norm(q3 - q1) / frobenius_norm(q1) > 0.5


def test_regime_switch_moving_covariance_departs_from_global():
    # final-regime EWM covariance vs the whole-sample covariance
    x = regime_switch(3000, 4, [1000, 2000], seed=11)
    _, q = sample_covariance(x)
    state = ewm_init(x[0], 0.97)
    for row in x[1:]:
        state = ewm_update(state, row)
    assert frobenius_norm(state.cov - q) / frobenius_norm(q) > 0.2


def test_regime_switch_validation():
    with pytest.raises(ValueError, match="strictly inside"):
        regime_switch(100, 3, [0])
    with pytest.raises(ValueError, match="distinct"):
        regime_switch(100, 3, [50, 50])
    with pytest.raises(ValueError, match="regime seeds"):
        regime_switch(100, 3, [50], regime_seeds=[1])


def test_volatility_cluster_is_heteroskedastic():
    x = volatility_cluster(1500, 3, persistence=0.97, seed=7)
    window = 100
    variances = np.array(
        [x[i : i + window, 0].var() for i in range(0, 1400, window)]
    )
    assert variances.max() / variances.min() > 2.0


def test_volatility_cluster_validation():
    with pytest.raises(ValueError, match="persistence"):
        volatility_cluster(100, 2, persistence=1.0)


def test_generators_reject_empty_shapes():
    for fn in (stationary_gaussian, volatility_cluster):
        with pytest.raises(ValueError, match="positive"):
            fn(0, 3)


def test_stationary_small_p_draws_from_uncapped_spectrum():
    seed = 4
    basis = np.linalg.cholesky(well_separated_covariance(9, seed))
    expected = np.random.default_rng(seed).standard_normal((50, 9)) @ basis.T
    assert np.array_equal(stationary_gaussian(50, 9, seed=seed), expected)


@pytest.mark.parametrize("p", [40, 100])
def test_generators_handle_wide_p(p):
    # uncapped, a ratio-3 spectrum cannot be Cholesky-factored from p ~ 37
    for x in (
        stationary_gaussian(50, p, seed=1),
        regime_switch(50, p, [25], seed=1),
        volatility_cluster(50, p, seed=1),
    ):
        assert x.shape == (50, p)
        assert np.isfinite(x).all()
