import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilothop import bounds
from pilothop.bounds import (
    BoundResult,
    McConfig,
    bound_at,
    bound_grid,
    estimation_variances,
    r1_bar,
    r2_bar,
    r3,
    ra,
    sinr1,
    sinra,
)
from pilothop.channels import LogNormalShadowing, UniformPowerError, analytic_moments, expect_beta, sample_beta
from pilothop.config import SystemConfig
from pilothop.optimize import grid_opt
from reference import sinr2, sinr3, sinr_components


def test_sinr1_hand_value():
    # lone device: numerator 10*100*1, denominator 1 + 11
    assert sinr1(1.0, [], [], 10, 101) == pytest.approx(1000.0 / 12.0, rel=1e-14)


def test_sinr1_contamination_limit():
    # equal-gain collider, enormous array: only the contamination term survives
    assert sinr1(2.0, [2.0], [], 10, 10**9) == pytest.approx(1.0, rel=1e-5)


def test_sinr1_rejects_single_antenna():
    with pytest.raises(ValueError):
        sinr1(1.0, [], [], 10, 1)


@pytest.mark.parametrize("args", [
    (1.0, [1.0], [1.0], 0, 8),
    (0.0, [1.0], [1.0], 5, 8),
    (1.0, [-1.0], [1.0], 5, 8),
    (1.0, [1.0], [1.0, 0.0], 5, 8),
], ids=["tau_p-0", "beta_0-0", "collider-negative", "other-0"])
def test_sinr1_checks_its_inputs(args):
    with pytest.raises(ValueError):
        sinr1(*args)


def _random_scenario(rng):
    c = int(rng.integers(0, 6))
    extra = int(rng.integers(0, 8))
    betas = np.exp(rng.normal(1.0, 1.2, size=1 + c + extra))
    return float(betas[0]), betas[1 : 1 + c], betas[1 + c :], int(rng.integers(1, 64)), int(rng.integers(2, 512))


def test_components_equal_closed_form(rng):
    for _ in range(1000):
        s = _random_scenario(rng)
        direct = sinr1(*s)
        via_variances = 1.0 / sinr_components(*s).inverse_sinr
        assert abs(direct - via_variances) <= 1e-12 * direct


@given(seed=st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_components_equal_closed_form_property(seed):
    s = _random_scenario(np.random.default_rng(seed))
    direct = sinr1(*s)
    assert abs(direct - 1.0 / sinr_components(*s).inverse_sinr) <= 1e-12 * direct


def test_estimation_variances_values():
    est, err = estimation_variances(9.0, [4.0, 2.5], 16)
    s_yy = 16 * 15.5 + 1
    assert est == pytest.approx(16 * 81 / s_yy, rel=1e-14)
    assert err == pytest.approx(9.0 * (1 + 16 * 6.5) / s_yy, rel=1e-14)
    assert est + err == pytest.approx(9.0, rel=1e-14)  # estimate + error split the prior power


def test_sinr2_no_collider_single_device():
    mo = analytic_moments(UniformPowerError(10.0, 0.3))
    b0, tau_p, M = 7.0, 12, 32
    want = tau_p * (M - 1) * b0**2 / (b0 + (1 + b0 * tau_p))
    assert sinr2(0, 1, b0, mo, tau_p, M) == pytest.approx(want, rel=1e-14)


def test_sinr2_jensen_step_deterministic():
    # with a constant gain the identity-averaged denominator equals the
    # per-scenario one, so the two SINRs coincide
    model = UniformPowerError(10.0, 0.0)
    mo = analytic_moments(model)
    for c, K_a, tau_p, M in [(0, 1, 5, 16), (2, 9, 8, 64), (5, 30, 20, 100)]:
        others = [10.0] * (K_a - 1 - c)
        assert sinr2(c, K_a, 10.0, mo, tau_p, M) == pytest.approx(sinr1(10.0, [10.0] * c, others, tau_p, M), rel=1e-12)


def test_sinr2_jensen_step_monte_carlo(rng):
    # identity-averaged denominator vs the empirical mean of per-scenario ones
    model = LogNormalShadowing(10.0, 0.3)
    mo = analytic_moments(model)
    c, K_a, tau_p, M, b0 = 3, 20, 12, 64, 7.0
    n = 10**5
    coll = sample_beta(model, rng, (n, c))
    others = sample_beta(model, rng, (n, K_a - 1 - c))
    S = b0 + coll.sum(axis=1)
    Q = b0**2 + (coll**2).sum(axis=1)
    den11 = (
        tau_p * (M - 1) * (coll**2).sum(axis=1)
        + S
        + tau_p * (S * S - Q)
        + (1 + others.sum(axis=1)) * (1 + tau_p * S)
    )
    den12 = tau_p * (M - 1) * b0**2 / sinr2(c, K_a, b0, mo, tau_p, M)
    se = den11.std(ddof=1) / math.sqrt(n)
    assert abs(den11.mean() - den12) <= 4 * se


def test_sinr2_large_M_limit():
    mo = analytic_moments(LogNormalShadowing(10.0, 0.4))
    got = sinr2(3, 10, 7.0, mo, 16, 10**12)
    assert got == pytest.approx(7.0**2 / (mo.mean_sq * 3), rel=1e-6)


def test_sinr3_collapse_at_one_active():
    mo = analytic_moments(UniformPowerError(10.0, 0.2))
    b0, tau_p, M, K = 9.0, 20, 64, 800
    p_a = 1.0 / K
    den = b0 + (1 + b0 * tau_p) + mo.mean**2 * (p_a**2 * K * (K - 1))
    assert sinr3(b0, mo, tau_p, p_a, K, M) == pytest.approx(tau_p * (M - 1) * b0**2 / den, rel=1e-12)


def test_sinr3_matches_sinra_at_scale():
    mo = analytic_moments(UniformPowerError(10.0, 0.0))
    for M, tau_p, paK, K in [(10**4, 500, 300, 10**5), (10**5, 1000, 1000, 10**6)]:
        s3 = sinr3(10.0, mo, tau_p, paK / K, K, M)
        sa = sinra(10.0, mo, tau_p, paK, M)
        assert abs(s3 - sa) / s3 < 0.05


def test_sinr3_monotone_in_activity():
    mo = analytic_moments(UniformPowerError(10.0, 0.3))
    K = 800
    vals = [sinr3(10.0, mo, 33, q / K, K, 100) for q in np.linspace(2, 400, 60)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sinr3_requires_enough_activity():
    mo = analytic_moments(UniformPowerError(10.0, 0.0))
    with pytest.raises(ValueError, match="r1_bar"):
        sinr3(10.0, mo, 33, 0.5 / 800, 800, 100)


@pytest.mark.parametrize("beta_0", [math.nan, -1e6])
def test_sinr2_sinr3_reject_non_positive_interference(beta_0):
    # an explicit error, not an assert, so the check survives python -O
    mo = analytic_moments(UniformPowerError(10.0, 0.2))
    with pytest.raises(ValueError, match="interference power"):
        sinr2(1, 10, beta_0, mo, 16, 64)
    with pytest.raises(ValueError, match="interference power"):
        sinr3(beta_0, mo, 16, 10 / 800, 800, 64)


def test_sinra_three_term_decomposition():
    mo = analytic_moments(LogNormalShadowing(10.0, 0.2))
    b0, tau_p, paK, M = 6.0, 25, 40.0, 128
    s = sinra(b0, mo, tau_p, paK, M)
    terms = (
        mo.mean_sq * paK / (tau_p * b0**2),
        mo.mean**2 * paK**2 / (M * tau_p * b0**2),
        mo.mean * paK / (M * b0),
    )
    assert 1.0 / s == pytest.approx(sum(terms), rel=1e-14)


def test_ra_surface_unimodal_interior():
    # coarse scan of the large-system bound at M = tau_u = 400
    cfg = SystemConfig(M=400, K=10**5, tau_u=400, model=UniformPowerError(10.0, 0.0), seed=0)
    tps = np.arange(8, 400, 8)
    qs = np.geomspace(2.0, 4000.0, 40)
    surf = np.array(
        [[ra(replace(cfg, tau_p=int(tp), p_a=q / cfg.K)).value for q in qs] for tp in tps]
    )
    i, j = np.unravel_index(surf.argmax(), surf.shape)
    assert 0 < i < tps.size - 1 and 0 < j < qs.size - 1
    assert 0.2 <= tps[i] / 400 <= 0.5
    interior = surf[1:-1, 1:-1]
    peaks = (
        (interior >= surf[:-2, 1:-1])
        & (interior >= surf[2:, 1:-1])
        & (interior >= surf[1:-1, :-2])
        & (interior >= surf[1:-1, 2:])
    )
    assert int(peaks.sum()) == 1


def test_ra_below_r3_at_scale():
    model = UniformPowerError(10.0, 0.0)
    for M, tau_u, tau_p, paK in [(4000, 2000, 600, 500), (10**4, 5000, 1500, 900)]:
        cfg = SystemConfig(M=M, K=10**5, tau_u=tau_u, tau_p=tau_p, p_a=paK / 10**5, model=model, seed=0)
        assert ra(cfg).value <= r3(cfg).value * (1 + 1e-9)


def _cfg(**kw):
    base = dict(M=100, K=800, tau_u=100, tau_p=33, p_a=30 / 800, seed=7)
    base.update(kw)
    return SystemConfig(**base)


def test_averaged_bounds_zero_activity(power_controlled):
    cfg = _cfg(p_a=0.0, model=power_controlled)
    for fn in (r1_bar, r2_bar, r3, ra):
        res = fn(cfg)
        assert res.value == 0.0 and res.mc_std_err == 0.0


def test_r1_bar_single_device_matches_quadrature(uniform_spread):
    cfg = SystemConfig(M=50, K=1, tau_u=80, tau_p=10, p_a=1.0, model=uniform_spread, seed=2,
                       mc=McConfig(n_beta_samples=100000))
    got = r1_bar(cfg)

    def rate_of_gain(b0):
        return (70 / 80) * math.log2(1.0 + sinr1(b0, [], [], 10, 50))

    want = expect_beta(uniform_spread, np.vectorize(rate_of_gain))
    assert abs(got.value - want) <= 4 * got.mc_std_err


def test_r1_bar_matches_exhaustive_enumeration():
    # tiny system, constant gains: enumerate every activation pattern and
    # every pilot assignment, score each active device's conditional SINR,
    # and average -- a from-scratch oracle for the whole summation skeleton
    K, tau_p, tau_u, M, p_a, beta = 4, 2, 10, 8, 0.6, 10.0
    total = 0.0
    for pattern in itertools.product([0, 1], repeat=K):
        K_a = sum(pattern)
        p_act = p_a**K_a * (1 - p_a) ** (K - K_a)
        if K_a == 0:
            continue
        for assign in itertools.product(range(tau_p), repeat=K_a):
            p_assign = (1 / tau_p) ** K_a
            rate_sum = 0.0
            for dev in range(K_a):
                c = sum(1 for j in range(K_a) if j != dev and assign[j] == assign[dev])
                sinr = sinr1(beta, [beta] * c, [beta] * (K_a - 1 - c), tau_p, M)
                rate_sum += (tau_u - tau_p) / tau_u * math.log2(1.0 + sinr)
            total += p_act * p_assign * rate_sum
    cfg = SystemConfig(M=M, K=K, tau_u=tau_u, tau_p=tau_p, p_a=p_a, model=UniformPowerError(beta, 0.0), seed=0,
                       mc=McConfig(eps_tail=1e-15))
    got = r1_bar(cfg)
    assert got.mc_samples == 0
    assert got.value == pytest.approx(total, rel=1e-12)


def test_bounds_and_grid_opt_read_the_config_mc(uniform_spread, search_grid):
    # the Monte Carlo settings come from the scenario itself, on every entry point
    cfg = _cfg(model=uniform_spread, mc=McConfig(n_beta_samples=300))
    assert r1_bar(cfg).mc_samples == 300
    assert r2_bar(cfg).mc_samples == 300
    assert bound_at("R1", cfg, 20, 10.0).mc_samples == 300
    search_grid(3, 3, 2)
    res = grid_opt("R1", replace(cfg, tau_p=None, p_a=None))
    at = bound_at("R1", cfg, res.tau_p_opt, res.p_aK_opt)
    assert at.mc_samples == 300 and res.rate == at.value


def test_r2_equals_r1_power_control(power_controlled):
    cfg = _cfg(model=power_controlled)
    v1 = r1_bar(cfg)
    v2 = r2_bar(cfg)
    assert v1.mc_samples == 0 and v2.mc_samples == 0
    assert v2.value == pytest.approx(v1.value, rel=1e-12)


def test_r2_equals_r1_single_device(uniform_spread):
    # one device, always active: no colliders exist and the two averaged
    # bounds coincide draw for draw
    cfg = SystemConfig(M=50, K=1, tau_u=80, tau_p=10, p_a=1.0, model=uniform_spread, seed=6,
                       mc=McConfig(n_beta_samples=5000))
    v1 = r1_bar(cfg)
    v2 = r2_bar(cfg)
    assert v2.value == pytest.approx(v1.value, rel=1e-12)


def test_bound_ordering_with_spread(uniform_spread):
    for tp, q in [(10, 8.0), (33, 30.0), (70, 150.0)]:
        cfg = _cfg(tau_p=tp, p_a=q / 800, model=uniform_spread)
        v1 = r1_bar(cfg)
        v2 = r2_bar(cfg)
        v3 = r3(cfg)
        slack = 3 * math.hypot(v1.mc_std_err, v2.mc_std_err) + 1e-9 * v1.value
        assert v2.value <= v1.value + slack
        assert v3.value <= v1.value + 3 * v1.mc_std_err + 1e-9 * v1.value


def test_r3_and_ra_zero_cases(power_controlled):
    cfg = _cfg(tau_p=100, model=power_controlled)
    assert r3(cfg).value == 0.0
    assert ra(cfg).value == 0.0


def _cold_store(monkeypatch):
    pool: dict = {}
    monkeypatch.setattr(bounds, "_POOL", pool)
    return pool


def _held_bytes(pool):
    return sum(a.nbytes for value in pool.values() for a in value)


def test_r1_bar_is_deterministic(uniform_spread, monkeypatch, search_grid):
    cfg = _cfg(model=uniform_spread)
    _cold_store(monkeypatch)
    a = r1_bar(cfg)
    b = r1_bar(cfg)
    assert a.value == b.value and a.mc_std_err == b.mc_std_err
    c = r1_bar(replace(cfg, seed=8))
    assert c.value != a.value  # different stream, different estimate
    # the same bits from a cold store and from one warmed by a grid sweep
    # over the cell's pool, across three pilot lengths
    search_grid(3, 9, 4)
    for tp in (20, 33, 50):
        _cold_store(monkeypatch)
        cold = r1_bar(replace(cfg, tau_p=tp))
        grid_opt("R1", replace(cfg, tau_p=None, p_a=None))
        warm = r1_bar(replace(cfg, tau_p=tp))
        assert (warm.value, warm.mc_std_err) == (cold.value, cold.mc_std_err)
    # and from a pool first built narrower for the same (model, n, seed), then rebuilt wider
    pool = _cold_store(monkeypatch)
    r1_bar(replace(cfg, p_a=2 / cfg.K))
    narrow = pool[(cfg.model, cfg.mc.n_beta_samples, cfg.seed)][0].shape[0]
    wide = r1_bar(cfg)
    assert pool[(cfg.model, cfg.mc.n_beta_samples, cfg.seed)][0].shape[0] > narrow
    assert (wide.value, wide.mc_std_err) == (a.value, a.mc_std_err)


def test_store_stays_under_its_cap(uniform_spread, ring, monkeypatch, search_grid):
    pool = _cold_store(monkeypatch)
    cfg = _cfg(model=uniform_spread)
    search_grid(6, 8, 3)
    grid_opt("R1", replace(cfg, tau_p=None, p_a=None))
    assert len(pool) == 1 and 0 < _held_bytes(pool) <= bounds.STORE_CAP_BYTES
    big = SystemConfig(M=100, K=10**5, tau_u=100, tau_p=33, p_a=30 / 10**5, model=ring, seed=7)
    r1_bar(big)
    assert len(pool) <= 1 and _held_bytes(pool) <= bounds.STORE_CAP_BYTES
    # prefix sums larger than the cap (20000 x ~145 x 2 doubles) are used and
    # not held, and building them dropped the pool held before
    r1_bar(_cfg(p_a=90 / 800, model=uniform_spread, mc=McConfig(n_beta_samples=20000)))
    assert not pool


def test_pool_of_the_last_seed_alone_is_held(uniform_spread, monkeypatch):
    pool = _cold_store(monkeypatch)
    cfg = _cfg(model=uniform_spread)
    for seed in range(1, 6):
        r1_bar(replace(cfg, seed=seed))
    assert list(pool) == [(uniform_spread, cfg.mc.n_beta_samples, 5)]


def test_r2_builds_only_the_reference_column_of_the_pool(uniform_spread, monkeypatch):
    # R2 reads the reference gain, pool column 0, alone: a cold r2_bar holds a one-column
    # pool (two prefix-sum rows), and gives the bits it gives once r1_bar has built the pool
    # of the whole population
    pool = _cold_store(monkeypatch)
    cfg = SystemConfig(M=100, K=800, tau_u=100, tau_p=33, p_a=1.0, model=uniform_spread, seed=4)
    key = (cfg.model, cfg.mc.n_beta_samples, cfg.seed)
    cold = r2_bar(cfg)
    assert pool[key][0].shape[0] == 2 and cold.mc_samples == cfg.mc.n_beta_samples
    r1_bar(cfg)
    assert pool[key][0].shape[0] == cfg.K + 1
    warm = r2_bar(cfg)
    assert (warm.value, warm.mc_std_err, warm.mc_samples) == (cold.value, cold.mc_std_err, cold.mc_samples)


# What an R1/R2 row may hold at once beyond the pool's prefix sums and the
# window masses it is handed: four kernel tiles of 2 MiB and 2 MiB more
ROW_SCRATCH_BYTES = 4 * 8 * bounds.ROW_BLOCK_ENTRIES + 2 * 2**20


def test_row_scratch_does_not_grow_with_population(ring, monkeypatch):
    # a 25-cell row of the default grid at two populations: its peak, less
    # the window masses, stays under one budget whatever K
    _cold_store(monkeypatch)
    handed = []
    windows = bounds.binom_windows

    def counted(*args):
        found = windows(*args)
        handed.append(sum(m.nbytes for m in found[3]))
        return found

    monkeypatch.setattr(bounds, "binom_windows", counted)
    for K in (800, 4000):
        cfg = SystemConfig(M=100, K=K, tau_u=120, model=ring, seed=3, mc=McConfig(n_beta_samples=200))
        bounds._prefix_sums(cfg.model, 200, K, cfg.seed)  # the pool, built before the count
        for tau_p, bound in itertools.product((1, 6), ("R1", "R2")):
            handed.clear()
            tracemalloc.start()
            try:
                bound_grid(bound, cfg, [tau_p], np.geomspace(1.0, K, 25))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - sum(handed) <= ROW_SCRATCH_BYTES, (K, tau_p, bound, peak, sum(handed))


def test_r1_saturates_in_population(shadowed):
    values = []
    for K in (200, 400, 800, 1600):
        cfg = SystemConfig(M=100, K=K, tau_u=100, tau_p=33, p_a=30 / K, model=shadowed, seed=3,
                           mc=McConfig(n_beta_samples=1000))
        values.append(r1_bar(cfg).value)
    inc = np.abs(np.diff(values))
    assert inc[0] > inc[1] > inc[2]
    assert inc[-1] < 0.02 * values[-1]


def test_bound_result_invariants():
    with pytest.raises(ValueError):
        BoundResult(-1.0)
    with pytest.raises(ValueError):
        BoundResult(1.0, mc_samples=0, mc_std_err=0.5)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_sinrs_are_nonnegative(seed):
    assert sinr1(*_random_scenario(np.random.default_rng(seed))) >= 0.0
