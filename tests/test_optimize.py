import math
from dataclasses import replace

import numpy as np
import pytest

from pilothop import bounds
from pilothop.bounds import BOUNDS, McConfig, bound_grid, r3, ra
from pilothop.channels import LogNormalShadowing, UniformPowerError
from pilothop.config import SystemConfig
from pilothop.optimize import (
    S0,
    asymptotic_1d,
    golden_section_max,
    grid_opt,
    heuristic1,
    heuristic2_1d,
    optimize,
    rh0_cost,
)


def test_s0_literal_is_the_brentq_root():
    # S0 is pinned so the package need not import scipy.optimize; the bracket
    # and xtol are those the literal was solved with
    from scipy.optimize import brentq

    assert brentq(lambda x: math.log1p(x) - 2.0 * x / (1.0 + x), 1.0, 10.0, xtol=1e-14) == S0


def test_s0_defining_equation():
    s0 = S0
    assert abs(math.log1p(s0) - 2 * s0 / (1 + s0)) < 1e-10
    assert 3.91 <= s0 <= 3.93


def test_s0_brute_force_bracket():
    # independent sign-change scan of the residual at 1e-6 resolution
    x = np.arange(3.9, 3.95, 1e-6)
    res = np.log1p(x) - 2 * x / (1 + x)
    idx = np.flatnonzero(np.sign(res[:-1]) != np.sign(res[1:]))
    assert idx.size == 1
    assert x[idx[0]] <= S0 <= x[idx[0] + 1]


def test_heuristic1_values():
    tau_p, p_aK = heuristic1(100, 100)
    assert tau_p == 33
    assert p_aK == pytest.approx(math.sqrt(1e4 / (3 * S0)), rel=1e-14)
    assert heuristic1(3, 12345)[0] == 1
    with pytest.raises(ValueError):
        heuristic1(2, 100)


def test_heuristic1_scaling_homogeneity():
    _, q1 = heuristic1(100, 100)
    _, q2 = heuristic1(200, 200)
    assert q2 == pytest.approx(2 * q1, rel=1e-12)


def test_heuristic2_matches_fine_scan():
    # constant gain: objective reduces to b*log2(1 + 10/(3 b^2))
    model = UniformPowerError(10.0, 0.0)
    tau_p, p_aK, _, _ = heuristic2_1d(100, 100, model)
    assert tau_p == 33
    b = p_aK / 100.0
    grid = np.linspace(0.3, 3.0, 300001)
    vals = grid * np.log2(1.0 + 10.0 / (3.0 * grid**2))
    b_scan = grid[int(np.argmax(vals))]
    assert abs(b - b_scan) <= 2e-4 * b_scan


def test_heuristic2_independent_of_size():
    model = UniformPowerError(10.0, 0.3)
    _, q1, _, _ = heuristic2_1d(100, 100, model)
    _, q2, _, _ = heuristic2_1d(300, 400, model)
    assert q1 / math.sqrt(100 * 100) == pytest.approx(q2 / math.sqrt(300 * 400), rel=1e-9)


def test_heuristic2_grows_with_gain_spread():
    bs = []
    for s2 in (0.0, 0.5):
        _, q, _, _ = heuristic2_1d(100, 100, LogNormalShadowing(10.0, s2))
        bs.append(q / 100.0)
    assert bs[1] > bs[0]


def test_asymptotic_1d_objective_vanishes_at_extremes():
    model = UniformPowerError(10.0, 0.0)
    _, p_aK, val, _ = asymptotic_1d(100, 100, model)
    b_opt = p_aK / math.sqrt(100 * 100)
    for b in (1e-9, 1e6):
        den = b * 100.0 * 100 + b * b * 100.0 * 100.0 + b * 10.0 * 10.0 * 100 / 3.0
        tail = b * math.log2(1.0 + (100.0 / 3.0) * 100.0 / den)
        assert tail < 0.05 * val
    assert 0 < b_opt < 10


def test_asymptotic_1d_matches_restricted_grid():
    model = UniformPowerError(10.0, 0.0)
    cfg = SystemConfig(M=100, K=800, tau_u=100, model=model, seed=13)
    tau_p, p_aK, _, _ = asymptotic_1d(100, 100, model)
    qs = np.linspace(5.0, 200.0, 4000)
    vals = [ra(replace(cfg, tau_p=tau_p, p_a=q / 800)).value for q in qs]
    q_scan = qs[int(np.argmax(vals))]
    assert abs(p_aK - q_scan) <= 0.01 * q_scan


def test_asymptotic_1d_vs_heuristic1_same_order():
    # both point at the same optimum; the large-system curve keeps the
    # array-gain interference term, which shifts its activation level up
    # by ~30% at M = tau_u = 100 (measured), not within 15%
    model = UniformPowerError(10.0, 0.0)
    _, q_a, _, _ = asymptotic_1d(100, 100, model)
    _, q_h = heuristic1(100, 100)
    assert 0.8 <= q_a / q_h <= 1.5
    assert q_a / q_h == pytest.approx(1.30, abs=0.05)


def test_golden_section_finds_quadratic_peak():
    x, fx, evals = golden_section_max(lambda x: -((x - 2.7) ** 2), 0.0, 10.0, rel_tol=1e-6)
    assert abs(x - 2.7) < 1e-4
    assert evals > 10


def _cfg(seed=11, **kw):
    base = dict(M=100, K=800, tau_u=100, seed=seed, mc=McConfig(n_beta_samples=500))
    base.update(kw)
    return SystemConfig(**base)


def test_grid_opt_reevaluation_reproduces_rate(search_grid):
    cfg = _cfg(model=UniformPowerError(10.0, 0.5))
    search_grid(8, 8, 5)
    res = grid_opt("R1", cfg)
    from pilothop.bounds import r1_bar

    again = r1_bar(replace(cfg, tau_p=res.tau_p_opt, p_a=res.p_aK_opt / 800))
    assert again.value == res.rate  # bit-identical: same seed, same point


def test_r1_opt_point_keeps_its_argmax(ring):
    # one fig6 R1-opt point, 500 samples per cell: the argmax and rate the
    # per-cell engine found before the F-row table replaced it
    cfg = SystemConfig(M=100, K=800, tau_u=120, model=ring, seed=3, mc=McConfig(n_beta_samples=500))
    res = grid_opt("R1", cfg)
    assert (res.tau_p_opt, res.p_aK_opt, res.evaluations) == (39, 40.46389372560529, 790)
    assert res.rate == pytest.approx(27.571692350974395, rel=1e-12)


def test_grid_opt_respects_bounds(search_grid):
    cfg = _cfg(model=UniformPowerError(10.0, 0.0))
    search_grid(9, 9, 5)
    for cost, fn in (("R3", r3), ("Ra", ra)):
        res = grid_opt(cost, cfg)
        assert 1 <= res.tau_p_opt <= 100
        assert 0 < res.p_aK_opt <= 800
        assert res.rate > 0
        assert res.evaluations >= 81
        at = replace(cfg, tau_p=res.tau_p_opt, p_a=res.p_aK_opt / 800)
        assert fn(at).value == res.rate  # re-evaluation reproduces the optimum


def test_grid_opt_single_point_grid(search_grid, monkeypatch):
    # one point per axis: stage one is the cell (1, PAK_MIN), and stage two keeps it
    cfg = _cfg(model=UniformPowerError(10.0, 0.0))
    search_grid(1, 1, 1)
    monkeypatch.setattr("pilothop.optimize.PAK_MIN", 42.0)
    res = grid_opt("Ra", cfg)
    assert (res.tau_p_opt, res.p_aK_opt, res.evaluations) == (1, 42.0, 2)
    assert res.rate == ra(replace(cfg, tau_p=1, p_a=42.0 / 800)).value


def test_grid_opt_rejects_bad_grids():
    # grid_opt's own grid lies in [1, tau_u] x [1, K]; a cell outside it is
    # rejected by bound_grid, which takes every stage, and a cost without a
    # bound by grid_opt itself
    cfg = _cfg(model=UniformPowerError(10.0, 0.0))
    with pytest.raises(ValueError):
        bound_grid("Ra", cfg, [0], [42.0])
    with pytest.raises(ValueError):
        grid_opt("R2", cfg)


def test_grid_opt_dominates_heuristic_on_same_cost():
    cfg = _cfg(model=UniformPowerError(10.0, 0.0))
    res = grid_opt("Ra", cfg)
    tau_p, p_aK = heuristic1(100, 100)
    at_heur = ra(replace(cfg, tau_p=tau_p, p_a=p_aK / 800)).value
    assert res.rate >= at_heur - 1e-12


def test_grid_opt_interior_argmax_at_m400():
    cfg = SystemConfig(M=400, K=10**5, tau_u=400, model=UniformPowerError(10.0, 0.0), seed=1)
    res = grid_opt("Ra", cfg)
    assert 0.2 <= res.tau_p_opt / 400 <= 0.5
    assert res.p_aK_opt < 10**5


def test_r3_and_ra_argmax_agree(search_grid):
    cfg = _cfg(seed=13, model=UniformPowerError(10.0, 0.0), mc=McConfig(n_beta_samples=1))
    search_grid(12, 12, 7)
    r3res = grid_opt("R3", cfg)
    rares = grid_opt("Ra", cfg)
    tp_step = 99 / 11
    assert abs(r3res.tau_p_opt - rares.tau_p_opt) <= tp_step
    ratio = (800 / 1.0) ** (1 / 11)
    assert max(r3res.p_aK_opt, rares.p_aK_opt) / min(r3res.p_aK_opt, rares.p_aK_opt) <= ratio


def test_heuristics_never_touch_the_main_bound(monkeypatch, search_grid):
    calls = {"n": 0}

    def spy(*a, **k):
        calls["n"] += 1
        raise AssertionError("averaged bound evaluated inside a heuristic")

    # every R1 or R2 evaluation, at a point or over a grid, takes its rows from _averaged_row
    monkeypatch.setattr(bounds, "_averaged_row", spy)
    cfg = _cfg(model=UniformPowerError(10.0, 0.3))
    for method in ("Rh0", "Rh-1D", "Ra-1D"):
        res = optimize(method, cfg)
        assert res.method == method
    assert calls["n"] == 0
    # the spy sees both ways in: a grid optimization and a point
    search_grid(3, 3, 2)
    with pytest.raises(AssertionError, match="averaged bound"):
        grid_opt("R1", cfg)
    with pytest.raises(AssertionError, match="averaged bound"):
        BOUNDS["R2"](replace(cfg, tau_p=20, p_a=0.05))
    assert calls["n"] == 2


def test_optimize_dispatch_and_rate_recheck():
    cfg = _cfg(model=UniformPowerError(10.0, 0.0))
    res = optimize("Rh0", cfg)
    assert res.rate == pytest.approx(rh0_cost(res.tau_p_opt, res.p_aK_opt, 100, 100), rel=1e-14)
    res = optimize("Ra-1D", cfg)
    again = ra(replace(cfg, tau_p=res.tau_p_opt, p_a=res.p_aK_opt / 800)).value
    assert res.rate == again
    with pytest.raises(ValueError):
        optimize("R9-opt", cfg)
