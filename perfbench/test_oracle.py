"""Tests of the benchmark's oracle against hand enumeration and direct integration.

    python3 -m pytest perfbench/test_oracle.py -q
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

import oracle

POWER_CONTROLLED = {"type": "uniform", "delta_bar": 10.0, "alpha": 0.0}
SPREAD = {"type": "uniform", "delta_bar": 10.0, "alpha": 0.5}
RING = {"type": "pathloss", "delta_bar": 10.0, "alpha": 0.25}
SHADOWED = {"type": "lognormal", "delta_bar": 10.0, "sigma_v2": 4.0}


def device_sinr(gains, pilots, k, tau_p, M):
    """SINR of active device k written device by device, as in the paper."""
    members = [j for j in range(len(gains)) if pilots[j] == pilots[k]]
    others = [j for j in range(len(gains)) if pilots[j] != pilots[k]]
    on_pilot = sum(gains[j] for j in members)
    contamination = tau_p * (M - 1) * sum(gains[j] ** 2 for j in members if j != k)
    estimation = sum(gains[m] * (1.0 + tau_p * (on_pilot - gains[m])) for m in members)
    residual = (1.0 + sum(gains[j] for j in others)) * (1.0 + tau_p * on_pilot)
    return tau_p * (M - 1) * gains[k] ** 2 / (contamination + estimation + residual)


def enumerated_r1(K, p_a, tau_p, tau_u, M, gains):
    """Sum rate averaged over every activation subset and every pilot choice.

    ``gains`` is a (n_draws, K) array; each device keeps its own gain.
    """
    prelog = (tau_u - tau_p) / tau_u
    total = np.zeros(gains.shape[0])
    for active in itertools.product((0, 1), repeat=K):
        idx = [i for i in range(K) if active[i]]
        p_set = p_a ** len(idx) * (1.0 - p_a) ** (K - len(idx))
        for pilots in itertools.product(range(tau_p), repeat=len(idx)):
            g = [gains[:, i] for i in idx]
            rate = sum(np.log2(1.0 + device_sinr(g, pilots, k, tau_p, M)) for k in range(len(idx)))
            total += p_set * tau_p ** -len(idx) * prelog * rate
    return total


@pytest.mark.parametrize("n,p", [(0, 0.3), (1, 0.5), (7, 0.2), (40, 0.9), (800, 0.05)])
def test_binomial_masses_match_comb(n, p):
    ks, w = oracle.binomial(n, p)
    want = np.array([math.comb(n, int(k)) * p ** int(k) * (1 - p) ** (n - int(k)) for k in ks])
    assert np.allclose(w, want, rtol=1e-9, atol=0.0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_binomial_edges_and_scale():
    assert oracle.binomial(5, 0.0)[0].tolist() == [0]
    assert oracle.binomial(5, 1.0)[0].tolist() == [5]
    ks, w = oracle.binomial(100000, 3e-4)
    assert abs(float(ks @ w) - 30.0) < 1e-6


@pytest.mark.parametrize("K,p_a,tau_p,tau_u,M", [(1, 1.0, 1, 3, 2), (2, 0.5, 1, 4, 4), (3, 0.4, 2, 6, 8),
                                                 (4, 0.3, 3, 9, 16), (4, 0.8, 2, 10, 100)])
def test_r1_power_controlled_equals_enumeration(K, p_a, tau_p, tau_u, M):
    want = float(enumerated_r1(K, p_a, tau_p, tau_u, M, np.full((1, K), 10.0))[0])
    got, err = oracle.r1(M, K, tau_u, tau_p, p_a * K, POWER_CONTROLLED)
    assert err == 0.0
    assert got == pytest.approx(want, rel=1e-12)


def test_r1_hand_value_single_device():
    # one always-active device: SINR = tau_p (M-1) b^2 / (b + 1 + tau_p b)
    b, tau_p, M, tau_u = 10.0, 2, 8, 6
    want = (tau_u - tau_p) / tau_u * math.log2(1.0 + tau_p * (M - 1) * b * b / (b + 1.0 + tau_p * b))
    assert oracle.r1(M, 1, tau_u, tau_p, 1.0, POWER_CONTROLLED)[0] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("model", [SPREAD, RING, SHADOWED])
def test_r1_spread_gains_match_enumeration(model):
    K, p_a, tau_p, tau_u, M = 4, 0.5, 2, 8, 8
    rng = np.random.default_rng(7)
    draws = enumerated_r1(K, p_a, tau_p, tau_u, M, oracle.draw_gains(model, rng, (4000, K)))
    want, want_err = draws.mean(), draws.std(ddof=1) / math.sqrt(draws.size)
    got, err = oracle.r1(M, K, tau_u, tau_p, p_a * K, model, seed=11)
    assert err > 0.0
    assert abs(got - want) < 4.0 * math.hypot(err, want_err)


def test_frame_rates_single_pilot_are_exact():
    # with one pilot every slot is the same scenario, so frames do not spread
    rates = oracle.frame_rates(8, 3, 6, 1, POWER_CONTROLLED, 50, seed=1)
    want = float(enumerated_r1(3, 1.0, 1, 6, 8, np.full((1, 3), 10.0))[0])
    assert rates == pytest.approx(np.full(oracle.FRAMES, want), rel=1e-12)


@pytest.mark.parametrize("model", [POWER_CONTROLLED, SPREAD])
def test_frame_rates_average_to_conditional_r1(model):
    K_a, tau_p, tau_u, M = 4, 2, 8, 8
    draws = enumerated_r1(K_a, 1.0, tau_p, tau_u, M, oracle.draw_gains(model, np.random.default_rng(3), (4000, K_a)))
    want, want_err = draws.mean(), draws.std(ddof=1) / math.sqrt(draws.size)
    rates = oracle.frame_rates(M, K_a, tau_u, tau_p, model, 100, seed=5)
    err = rates.std(ddof=1) / math.sqrt(rates.size)
    assert err > 0.0
    assert abs(rates.mean() - want) < 4.0 * math.hypot(err, want_err)


def _bound_by_quad(bound, M, K, tau_u, tau_p, p_aK, model):
    """R3 or Ra by adaptive quadrature over the model's underlying variable."""
    kind, spread = model["type"], model.get("alpha", model.get("sigma_v2", 0.0))
    if kind == "lognormal":
        sd = math.sqrt(spread)
        density, lo, hi = (lambda v: math.exp(-v * v / (2 * spread)) / (sd * math.sqrt(2 * math.pi))), -12 * sd, 12 * sd
    else:
        density, lo, hi = (lambda v: 1.0 / (2 * spread)), -spread, spread

    def expect(f):
        return integrate.quad(lambda v: f(float(oracle.gain_of_v(model, v))) * density(v), lo, hi,
                              epsabs=0.0, epsrel=1e-12, limit=400)[0]

    m1, m2 = expect(lambda b: b), expect(lambda b: b * b)
    paK, p_a, prelog = p_aK, p_aK / K, (tau_u - tau_p) / tau_u
    if bound == "Ra":
        def sinr(b):
            return M * tau_p * b * b / (m2 * M * paK + m1 * m1 * paK * paK + m1 * b * paK * tau_p)
    else:
        n1 = paK - 1.0

        def sinr(b):
            den = (m2 * (M - 1) * n1 + b * (1 + m1 * n1) - m1 * m1 * n1 + (1 + n1 * m1) * (1 + b * tau_p)
                   + n1 * m1 + m1 * m1 * (p_a * p_a * K * (K - 1) - n1))
            return tau_p * (M - 1) * b * b / den
    return prelog * paK * expect(lambda b: math.log2(1.0 + sinr(b)))


@pytest.mark.parametrize("model", [SPREAD, RING, SHADOWED])
@pytest.mark.parametrize("bound", ["R3", "Ra"])
def test_analytic_bounds_match_adaptive_quadrature(bound, model):
    fn = oracle.r3 if bound == "R3" else oracle.ra
    for tau_u, tau_p, p_aK in ((60, 20, 40.0), (300, 84, 73.5)):
        want = _bound_by_quad(bound, 100, 800, tau_u, tau_p, p_aK, model)
        assert fn(100, 800, tau_u, tau_p, p_aK, model) == pytest.approx(want, rel=1e-9)


def test_power_controlled_bounds_are_closed_form():
    M, K, tau_u, tau_p, q, b = 100, 10**6, 100, 50, 1581.1, 10.0
    sinr = M * tau_p * b * b / (b * b * M * q + b * b * q * q + b * b * q * tau_p)
    assert oracle.ra(M, K, tau_u, tau_p, q, POWER_CONTROLLED) == pytest.approx(
        (tau_u - tau_p) / tau_u * q * math.log2(1 + sinr), rel=1e-14)
