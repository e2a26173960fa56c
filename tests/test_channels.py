import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pilothop.bounds import sinra
from pilothop import channels
from pilothop.channels import (
    BetaMoments,
    LogNormalShadowing,
    RingPathLoss,
    UniformPowerError,
    analytic_moments,
    beta_nodes,
    expect_beta,
    is_degenerate,
    raw_moment,
    sample_beta,
    sample_channels,
)
from reference import sinr3


@pytest.mark.parametrize(
    "model",
    [UniformPowerError(10.0, 0.0), LogNormalShadowing(10.0, 0.0), RingPathLoss(10.0, 0.0)],
)
def test_degenerate_models_are_constant(model, rng):
    draws = sample_beta(model, rng, 1000)
    assert np.all(draws == 10.0)
    mo = analytic_moments(model)
    assert (mo.mean, mo.mean_sq, mo.mean_4th) == (10.0, 100.0, 10000.0)
    assert is_degenerate(model)


def test_uniform_mean_sq_half_spread():
    mo = analytic_moments(UniformPowerError(10.0, 0.5))
    assert mo.mean_sq == pytest.approx(100.0 * (1 + 0.25 / 3), rel=1e-14)


def _uniform_quad_moment(model, n):
    if isinstance(model, UniformPowerError):
        f = lambda v: (model.delta_bar * (1 + v)) ** n
    else:
        f = lambda v: (model.delta_bar * (1 + v) ** -channels.PATHLOSS_EXP) ** n
    a = model.alpha
    val, _ = integrate.quad(f, -a, a, epsrel=1e-12)
    return val / (2 * a)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_uniform_moments_match_quadrature(alpha, n):
    model = UniformPowerError(10.0, alpha)
    assert raw_moment(model, n) == pytest.approx(_uniform_quad_moment(model, n), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.6])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_ring_moments_match_quadrature(alpha, n):
    model = RingPathLoss(10.0, alpha)
    assert raw_moment(model, n) == pytest.approx(_uniform_quad_moment(model, n), rel=1e-10)


def test_ring_empirical_mean(rng):
    model = RingPathLoss(10.0, 0.25)
    draws = sample_beta(model, rng, 10**6)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - analytic_moments(model).mean) <= 3 * se


def test_lognormal_moments_match_monte_carlo(rng):
    model = LogNormalShadowing(10.0, 0.5)
    mo = analytic_moments(model)
    draws = sample_beta(model, rng, 10**7)
    for n, want in ((1, mo.mean), (2, mo.mean_sq), (4, mo.mean_4th)):
        got = float((draws**n).mean())
        assert abs(got - want) / want < 0.01


@pytest.mark.parametrize(
    "model",
    [UniformPowerError(10.0, 0.5), LogNormalShadowing(10.0, 0.25), RingPathLoss(10.0, 0.25)],
)
def test_empirical_moments_within_3se(model, rng):
    draws = sample_beta(model, rng, 10**6)
    mo = analytic_moments(model)
    for n, want in ((1, mo.mean), (2, mo.mean_sq), (4, mo.mean_4th)):
        x = draws**n
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - want) <= 3 * se


@given(
    kind=st.sampled_from(["uniform", "lognormal", "ring"]),
    delta_bar=st.floats(0.1, 100.0),
    spread=st.floats(0.0, 0.95),
)
@settings(max_examples=80, deadline=None)
def test_jensen_orderings(kind, delta_bar, spread):
    if kind == "uniform":
        model = UniformPowerError(delta_bar, spread)
    elif kind == "lognormal":
        model = LogNormalShadowing(delta_bar, spread)
    else:
        model = RingPathLoss(delta_bar, spread)
    mo = analytic_moments(model)
    assert mo.mean_sq >= mo.mean**2 * (1 - 1e-12)
    assert mo.mean_4th >= mo.mean_sq**2 * (1 - 1e-12)


def test_moments_validation_catches_inconsistency():
    with pytest.raises(ValueError):
        BetaMoments(mean=10.0, mean_sq=50.0, mean_4th=10000.0)


def test_spread_factor_unity_under_power_control():
    for model in (UniformPowerError(3.0, 0.0), LogNormalShadowing(7.0, 0.0), RingPathLoss(11.0, 0.0)):
        assert analytic_moments(model).spread_factor == 1.0


def test_ring_alpha_one_rejected():
    with pytest.raises(ValueError):
        RingPathLoss(10.0, 1.0)


def test_sample_channels_norm(rng):
    g = sample_channels([1.0], 2, rng)
    assert g.shape == (2, 1)
    draws = np.array([np.vdot(c, c).real for c in (sample_channels([1.0], 2, rng)[:, 0] for _ in range(20000))])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 2.0) <= 3 * se


def test_sample_channels_entry_variance_and_independence(rng):
    betas = [2.0, 5.0]
    g = sample_channels(betas, 100, np.random.default_rng(5))
    stacked = np.concatenate([sample_channels(betas, 100, rng) for _ in range(1000)], axis=0)
    for j, b in enumerate(betas):
        emp = (np.abs(stacked[:, j]) ** 2).mean()
        assert abs(emp - b) / b < 0.02
    # cross-column correlation compatible with zero
    prod = stacked[:, 0] * stacked[:, 1].conj()
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(prod.mean()) <= 3 * abs(se)
    assert g.shape == (100, 2)


def _quad_expectation(model, f):
    """E[f(gain)] by adaptive quadrature over the model's uniform variable."""
    if isinstance(model, UniformPowerError):
        beta_of_v = lambda v: model.delta_bar * (1 + v)
    else:
        beta_of_v = lambda v: model.delta_bar * (1 + v) ** -channels.PATHLOSS_EXP
    a = model.alpha
    val, _ = integrate.quad(lambda v: f(beta_of_v(v)), -a, a, epsrel=1e-12, limit=400)
    return val / (2 * a)


def test_expect_beta_quadrature_matches_nodes():
    # the R3 and Ra integrands, as the bounds build them, over an operating grid
    M, K = 100, 800
    models = [UniformPowerError(10.0, a) for a in (0.25, 0.5, 1.0)]
    models += [RingPathLoss(10.0, a) for a in (0.25, 0.5, 0.9)]
    for model in models:
        mo = analytic_moments(model)
        for tau_p in (1, 10, 33, 60):
            for paK in (1.0, 5.0, 30.0, 200.0):
                for sinr in (lambda b: sinr3(b, mo, tau_p, paK / K, K, M), lambda b: sinra(b, mo, tau_p, paK, M)):
                    f = lambda b: np.log2(1.0 + sinr(b))
                    assert expect_beta(model, f)[0] == pytest.approx(_quad_expectation(model, f), rel=1e-9)


def test_expect_beta_lognormal_is_seeded():
    model = LogNormalShadowing(10.0, 0.5)
    f = lambda b: np.log2(1.0 + b)
    a = expect_beta(model, f, seed=3)[0]
    b = expect_beta(model, f, seed=3)[0]
    c = expect_beta(model, f, seed=4)[0]
    assert a == b
    assert a != c
    val, err, n = expect_beta(model, f, seed=3)
    assert val == a and n == 16384
    exact = expect_beta(model, f, seed=5, mc_samples=2**18)[0]
    assert abs(val - exact) <= 4 * err


@pytest.mark.parametrize("model", [
    UniformPowerError(10.0, 0.0), LogNormalShadowing(10.0, 0.0), UniformPowerError(10.0, 0.5),
    RingPathLoss(10.0, 0.25), LogNormalShadowing(10.0, 4.0),
])
def test_beta_nodes_are_memoized_read_only(model):
    nodes, w = beta_nodes(model, seed=3)
    again = beta_nodes(model, seed=3)
    assert again[0] is nodes and again[1] is w
    for a in (nodes, w):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert w.sum() == pytest.approx(1.0, rel=1e-12)


def test_beta_nodes_store_stays_under_its_cap():
    model = LogNormalShadowing(10.0, 0.5)
    for seed in range(40):  # 40 keys of 256 kB: the memo keeps the last 32
        beta_nodes(model, mc_samples=16384, seed=seed)
        assert beta_nodes.cache_info().currsize <= 32
    hits = beta_nodes.cache_info().hits
    for seed in range(8, 40):
        beta_nodes(model, mc_samples=16384, seed=seed)
    assert beta_nodes.cache_info().hits == hits + 32
    # a key of 2**20 draws is computed and read-only like the rest
    big = beta_nodes(model, mc_samples=2**20, seed=5)
    assert big[0].size == 2**20 and not big[0].flags.writeable and not big[1].flags.writeable
    assert beta_nodes.cache_info().currsize <= 32


def test_beta_nodes_seeds_give_different_lognormal_draws():
    model = LogNormalShadowing(10.0, 4.0)
    a, b = beta_nodes(model, seed=3)[0], beta_nodes(model, seed=4)[0]
    assert not np.array_equal(a, b)
    assert np.array_equal(a, beta_nodes(model, seed=3)[0])
