import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stoppred.priors import (
    E_INV,
    DiscretePrior,
    Exponential,
    QuantileTable,
    Uniform,
    lambda_pair,
    neg_lambda_log,
    power_root_cdf,
    truncate_conditional,
)


def test_uniform_cdf_values():
    assert Uniform(0, 1).cdf(0.5) == 0.5
    assert Uniform(2, 3).cdf(1.0) == 0.0
    assert Uniform(2, 3).cdf(5.0) == 1.0


def test_discrete_cdf_partial_sum():
    prior = DiscretePrior([0.5, 0.3, 0.2])
    assert prior.cdf(2) == pytest.approx(0.8, abs=1e-15)
    assert prior.cdf(0.5) == 0.0
    assert prior.cdf(3) == 1.0


def test_discrete_cdf_far_outside_the_support():
    # values past 2**63 have no int64; the cdf must clip before casting
    prior = DiscretePrior([0.5, 0.3, 0.2])
    assert prior.cdf(3.5) == 1.0
    assert prior.cdf(1e30) == 1.0
    assert prior.cdf(math.inf) == 1.0
    assert prior.cdf(-1e30) == 0.0
    assert prior.cdf(-math.inf) == 0.0
    assert prior.cdf(np.array([-math.inf, 1.5, 1e30, math.inf])).tolist() == [0.0, 0.5, 1.0, 1.0]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0.0),
    st.one_of(
        st.integers(-3, 12).map(float),
        st.floats(-3.0, 12.0),
        st.sampled_from([2.0**63, 2.0**64 + 2.0**20, 1e300, -1e300, math.inf, -math.inf]),
    ),
)
def test_discrete_cdf_left_is_the_mass_below(weights, x):
    pmf = np.asarray(weights) / math.fsum(weights)
    prior = DiscretePrior(pmf)
    below = math.fsum(p for level, p in enumerate(pmf, start=1) if level < x)
    got = prior.cdf_left(x)
    assert got == pytest.approx(below, abs=1e-12)
    assert prior.cdf_left(np.array([x, x])).tolist() == [got, got]
    assert got <= prior.cdf(x)


def test_non_finite_parameters_are_rejected():
    for args in [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            Uniform(*args)
    for rate in [math.inf, math.nan]:
        with pytest.raises(ValueError):
            Exponential(rate)


def test_quantile_examples():
    assert Uniform(0, 1).quantile(0.25) == 0.25
    assert Uniform(2, 3).quantile(0.0) == 2.0
    assert Exponential(1.5).quantile(0.0) == 0.0
    assert DiscretePrior([0.5, 0.3, 0.2]).quantile(0.6) == 2.0


def test_quantile_rejects_bad_probability():
    with pytest.raises(ValueError):
        Uniform(0, 1).quantile(1.5)
    with pytest.raises(ValueError):
        Exponential(1.0).quantile(-0.1)


@pytest.mark.parametrize(
    "prior",
    [
        Uniform(0, 1),
        Uniform(2, 5),
        Exponential(0.7),
        QuantileTable([0.0, 0.25, 0.6, 1.0], [0.0, 1.0, 3.0, 10.0]),
    ],
)
def test_cdf_quantile_roundtrip(prior):
    qs = np.linspace(0.001, 0.999, 211)
    back = np.asarray(prior.cdf(prior.quantile(qs)))
    assert np.max(np.abs(back - qs)) <= 1e-9


def test_cdf_monotone():
    prior = Exponential(2.0)
    xs = np.linspace(0.0, 5.0, 300)
    cdf = np.asarray(prior.cdf(xs))
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[0] == 0.0


def test_power_root_identity_and_pointwise():
    base = Uniform(0, 1)
    assert power_root_cdf(base, 1) is base
    root = power_root_cdf(base, 2)
    assert root.cdf(0.25) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        power_root_cdf(base, 0)
    with pytest.raises(ValueError):
        power_root_cdf(DiscretePrior([1.0]), 2)


def test_power_root_max_recovers_base_one_sample_ks():
    # max of k = 3 draws from the k-th-root prior should follow the base
    rng = np.random.default_rng(1234)
    base = Uniform(0, 1)
    root = power_root_cdf(base, 3)
    draws = np.asarray(root.quantile(rng.random((100_000, 3)))).max(axis=1)
    stat = stats.kstest(draws, lambda x: np.asarray(base.cdf(x))).statistic
    assert stat <= 0.01


@pytest.mark.parametrize("k", [2, 5])
def test_power_root_two_sample_ks(k):
    rng = np.random.default_rng(99 + k)
    base = Uniform(0, 1)
    root = power_root_cdf(base, k)
    maxed = np.asarray(root.quantile(rng.random((100_000, k)))).max(axis=1)
    direct = rng.random(100_000)
    assert stats.ks_2samp(maxed, direct).statistic <= 0.02


def test_truncate_conditional_examples():
    prior = DiscretePrior([0.5, 0.3, 0.2])
    assert np.allclose(truncate_conditional(prior, 3).pmf, prior.pmf)
    point = truncate_conditional(prior, 1)
    assert point.pmf.tolist() == [1.0]
    assert truncate_conditional(prior, 2).pmf == pytest.approx([0.625, 0.375], abs=1e-15)


def test_truncate_conditional_composes_exactly():
    prior = DiscretePrior([0.25, 0.25, 0.25, 0.25])
    via = truncate_conditional(truncate_conditional(prior, 3), 2)
    direct = truncate_conditional(prior, 2)
    assert via.pmf.tolist() == direct.pmf.tolist()
    rng = np.random.default_rng(7)
    w = rng.random(6)
    prior = DiscretePrior(w / w.sum())
    via = truncate_conditional(truncate_conditional(prior, 5), 3)
    direct = truncate_conditional(prior, 3)
    assert np.max(np.abs(via.pmf - direct.pmf)) <= 1e-15


def test_truncate_conditional_rejects_zero_mass():
    prior = DiscretePrior([0.0, 1.0])
    with pytest.raises(ValueError):
        truncate_conditional(prior, 1)


def test_discrete_validation():
    with pytest.raises(ValueError):
        DiscretePrior([0.5, 0.6])
    with pytest.raises(ValueError):
        DiscretePrior([-0.1, 1.1])


def test_lambda_pair_boundaries():
    peak = lambda_pair(E_INV)
    assert peak.lambda1 == pytest.approx(E_INV, abs=1e-12)
    assert peak.lambda2 == pytest.approx(E_INV, abs=1e-12)
    flat = lambda_pair(0.0)
    assert (flat.lambda1, flat.lambda2) == (0.0, 1.0)


def test_lambda_pair_third():
    pair = lambda_pair(1.0 / 3.0)
    assert pair.lambda1 == pytest.approx(0.220, abs=1e-3)
    assert pair.lambda2 == pytest.approx(0.538, abs=1e-3)


def test_lambda_pair_rejects_outside():
    with pytest.raises(ValueError):
        lambda_pair(-0.01)
    with pytest.raises(ValueError):
        lambda_pair(0.4)
    with pytest.raises(ValueError):
        lambda_pair(math.nan)


def test_lambda_pair_residuals_on_grid():
    for beta in np.linspace(0.0, E_INV, 100):
        pair = lambda_pair(beta)
        assert pair.lambda1 <= pair.lambda2
        assert abs(neg_lambda_log(pair.lambda1) - beta) <= 1e-10
        assert abs(neg_lambda_log(pair.lambda2) - beta) <= 1e-10
        assert pair.lambda1 <= E_INV + 1e-15 <= pair.lambda2 + 1e-15


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(0.0, E_INV), st.sampled_from([0.0, 5e-324, E_INV - 1e-13, E_INV])))
def test_lambda_pair_residuals_and_order(beta):
    pair = lambda_pair(beta)
    assert pair.lambda1 <= E_INV <= pair.lambda2
    assert abs(neg_lambda_log(pair.lambda1) - beta) <= 1e-12
    assert abs(neg_lambda_log(pair.lambda2) - beta) <= 1e-12


def test_quantile_table_validation():
    with pytest.raises(ValueError):
        QuantileTable([0.0, 0.5], [1.0, 0.5])
    with pytest.raises(ValueError):
        QuantileTable([0.1, 1.0], [0.0, 1.0])


def test_exponential_tail():
    prior = Exponential(2.0)
    assert prior.quantile(1.0) == math.inf
    assert prior.cdf(math.inf) == 1.0
