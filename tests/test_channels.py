import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pilothop.bounds import _sinr3, sinra
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
    """E[f(gain)] by adaptive quadrature over the model's underlying variable."""
    if isinstance(model, LogNormalShadowing):
        sd = math.sqrt(model.sigma_v2)
        pdf = lambda v: math.exp(-v * v / (2 * model.sigma_v2)) / (sd * math.sqrt(2 * math.pi))
        val, _ = integrate.quad(lambda v: f(model.delta_bar * 10 ** (v / 10)) * pdf(v), -14 * sd, 14 * sd,
                                epsrel=1e-12, epsabs=0.0, limit=400)
        return val
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
    models += [LogNormalShadowing(10.0, s2) for s2 in (0.25, 4.0, 16.0)]
    for model in models:
        mo = analytic_moments(model)
        for tau_p in (1, 10, 33, 60):
            for paK in (1.0, 5.0, 30.0, 200.0):
                for sinr in (lambda b: _sinr3(b, mo, tau_p, paK / K, K, M), lambda b: sinra(b, mo, tau_p, paK, M)):
                    f = lambda b: np.log2(1.0 + sinr(b))
                    assert expect_beta(model, f) == pytest.approx(_quad_expectation(model, f), rel=1e-9), model


@pytest.mark.parametrize("sigma_v2", [0.25, 1.0, 4.0, 9.0, 16.0])
def test_hermite_moments_equal_closed_form(sigma_v2):
    model = LogNormalShadowing(10.0, sigma_v2)
    mo = analytic_moments(model)
    for n, want in ((1, mo.mean), (2, mo.mean_sq), (4, mo.mean_4th)):
        assert expect_beta(model, lambda b: b**n) == pytest.approx(want, rel=1e-14, abs=0.0)


def _hermite_200(model):
    x, w = np.polynomial.hermite.hermgauss(200)
    return model.delta_bar * 10.0 ** (math.sqrt(2.0 * model.sigma_v2) * x / 10.0), w / math.sqrt(math.pi)


@pytest.mark.parametrize("sigma_v2, tol", [(0.25, 1e-12), (4.0, 1e-12), (16.0, 1e-12), (64.0, 1e-7)])
def test_hermite_rule_agrees_with_a_finer_rule(sigma_v2, tol):
    # the R3 and Ra integrands over an operating grid, Rh-1D's over its scan
    # range and the balanced functional's over solve_ab's b range; taken as
    # log1p so that the rounding of 1 + sinr at tiny SINRs (up to 5e-12
    # relative here) does not hide the rule's own error
    model = LogNormalShadowing(10.0, sigma_v2)
    mo = analytic_moments(model)
    fine, w_fine = _hermite_200(model)
    root_f = math.sqrt(mo.spread_factor)
    sinrs = []
    for M, tau_p, paK in itertools.product((10, 100, 1000), (1, 10, 40), (1.0, 3.0, 30.0, 300.0)):
        sinrs += [functools.partial(_sinr3, moments=mo, tau_p=tau_p, p_a=paK / 1000, K=1000, M=M),
                  functools.partial(sinra, moments=mo, tau_p=tau_p, p_aK=paK, M=M)]
    for scale in (1e-2, 0.3, 1.0, 3.0, 1e2):
        sinrs.append(functools.partial(lambda b, s: b**2 / (3.0 * mo.mean * s * s), s=scale))
    for scale, (a, delta) in itertools.product((1e-3, 0.3, 1.0, 3.0, 5.0), ((0.01, 0.01), (0.3, 1.0), (0.9, 10.0))):
        sinrs.append(functools.partial(sinra, moments=mo, tau_p=a, p_aK=scale * root_f * math.sqrt(delta), M=delta))
    assert len(sinrs) == 92
    for sinr in sinrs:
        f = lambda b: np.log1p(sinr(b)) / math.log(2.0)
        assert expect_beta(model, f) == pytest.approx(w_fine @ f(fine), rel=tol, abs=0.0), sinr


@pytest.mark.parametrize("model", [
    UniformPowerError(10.0, 0.0), LogNormalShadowing(10.0, 0.0), UniformPowerError(10.0, 0.5),
    RingPathLoss(10.0, 0.25), LogNormalShadowing(10.0, 4.0),
])
def test_beta_nodes_are_memoized_read_only(model):
    nodes, w = beta_nodes(model)
    again = beta_nodes(type(model)(*vars(model).values()))  # an equal model, not the same object
    assert again[0] is nodes and again[1] is w
    assert nodes.size == (1 if is_degenerate(model) else channels.QUAD_NODES)
    for a in (nodes, w):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert w.sum() == pytest.approx(1.0, rel=1e-12)


def test_beta_nodes_differ_between_models():
    a, b = beta_nodes(LogNormalShadowing(10.0, 4.0)), beta_nodes(LogNormalShadowing(10.0, 4.5))
    assert not np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])  # the same Hermite weights, at wider nodes
