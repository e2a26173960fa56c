"""Oracle for the grid kernels: whole rows and R3/Ra stages against the per-cell formulation.

Both references take one cell at its activation probability p_a, a Python
float, as given; a grid cell at q is the reference at p_a = min(q/K, 1).
The R3/Ra reference evaluates paK = p_a*K and prelog * paK *
E[log2(1 + sinr)] with the SINR written out on scalars (Python's **
squares p_a through libm pow), as the bounds did before rows existed. The
R1/R2 reference is the per-cell engine that the row function replaced:
each F row of the cell's activation window built whole by the per-row
formula, then summed into the cell in ascending K_a. Rows, stages and
points must equal them with ==, and ``grid_opt`` must equal a cell-by-cell
grid search over ``bound_at``.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from pilothop import bounds, channels, optimize
from pilothop.access import binom_windows
from pilothop.bounds import BOUNDS, McConfig, _analytic_stage, bound_at, bound_grid
from pilothop.channels import (
    LogNormalShadowing,
    RingPathLoss,
    UniformPowerError,
    analytic_moments,
    beta_nodes,
    expect_beta,
    is_degenerate,
)
from pilothop.config import SystemConfig
from pilothop.optimize import grid_opt
from test_engine_oracle import _ref_row

MODELS = {
    "power-controlled": UniformPowerError(10.0, 0.0),
    "uniform-0.5": UniformPowerError(10.0, 0.5),
    "ring-0.25": RingPathLoss(10.0, 0.25),
    "lognormal-4": LogNormalShadowing(10.0, 4.0),
}
TAU_U, K, M = 60, 800, 100


def _cfg(name, seed=11):
    return SystemConfig(M=M, K=K, tau_u=TAU_U, model=MODELS[name], seed=seed, mc=McConfig(n_beta_samples=200))


def _cell(bound, cfg, tau_p, p_a):
    """(value, std_err, n_samples) of one cell, the per-cell way."""
    paK = p_a * cfg.K
    prelog = (cfg.tau_u - tau_p) / cfg.tau_u
    if paK == 0.0 or prelog == 0.0:
        return 0.0, 0.0, 0
    mo = analytic_moments(cfg.model)
    bm, b2m = mo.mean, mo.mean_sq
    if bound == "R3":
        if paK < 1.0:
            raise ValueError("p_a*K < 1")
        n1 = paK - 1.0

        def sinr(b0):
            den = (b2m * (cfg.M - 1) * n1 + b0 * (1.0 + bm * n1) - bm**2 * n1 + (1.0 + n1 * bm) * (1.0 + b0 * tau_p)
                   + n1 * bm + bm**2 * (p_a**2 * cfg.K * (cfg.K - 1) - n1))
            return tau_p * (cfg.M - 1) * b0**2 / den
    else:
        def sinr(b0):
            den = b2m * cfg.M * paK + bm**2 * paK**2 + bm * b0 * paK * tau_p
            return cfg.M * tau_p * b0**2 / den
    return prelog * paK * expect_beta(cfg.model, lambda b0: np.log2(1.0 + sinr(b0))), 0.0, 0



def _squares_disagree(x):
    # libm pow and a multiplication round x**2 differently (about 1 in 1,000)
    return x**2 != float(np.multiply(x, x))


# q = K caps p_a at 1, and q = 1 puts R1/R2's activation window at K_a =
# 1..8. The last cells are ones whose p_a (R3) or p_a*K (Ra) squares
# differently by pow and by multiplication, taken at high activity, where
# that square dominates the interference. R3/Ra rows at tau_p = 20 are
# padded to cross a block (_block_crossing_row).
_QS = np.linspace(400.0, K, 20000)
ROW = np.concatenate([
    np.geomspace(1.0, K, 50), [K, 37.5, 1.0],
    [q for q in _QS if _squares_disagree(q / K)][:8],
    [q for q in _QS if _squares_disagree(q / K * K)][:8],
])


def _block_crossing_row(name):
    """ROW padded until its live cells fill more than one expect_rows block on
    the model's nodes, with a zero-activity cell between the first two blocks."""
    step = max(1, channels._BLOCK_ELEMENTS // beta_nodes(MODELS[name])[0].size)
    row = np.concatenate([ROW, np.geomspace(1.5, K, max(step + 1 - ROW.size, 0))])
    return np.insert(row, step, 0.0)


# an F row depends on the bound, the config, tau_p and K_a only, so cells
# share them, as they did in the per-cell engine's store
_shared_row = functools.lru_cache(maxsize=4096)(_ref_row)


def _averaged_cell(bound, cfg, tau_p, p_a):
    """(value, std_err, n_samples) of one R1 or R2 cell, the per-cell way."""
    prelog = (cfg.tau_u - tau_p) / cfg.tau_u
    if p_a == 0.0 or prelog == 0.0:
        return 0.0, 0.0, 0
    table = replace(cfg, tau_p=tau_p)
    (a_lo,), (a_hi,), _, (act_w,) = binom_windows([cfg.K], p_a, cfg.mc.eps_tail)
    kas = range(max(int(a_lo), 1), int(a_hi) + 1)
    exact = is_degenerate(cfg.model)
    n = 1 if exact else cfg.mc.n_beta_samples
    total = np.zeros(n)
    for K_a, w in zip(kas, act_w[kas[0] - a_lo:]):
        total += w * K_a * prelog * _shared_row(bound, table, K_a)
    if exact:
        return float(total.mean()), 0.0, 0
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n)), n


@pytest.mark.parametrize("bound", ["R1", "R2", "R3", "Ra"])
@pytest.mark.parametrize("name", list(MODELS))
def test_row_equals_cells(bound, name):
    cfg = _cfg(name)
    cell = _averaged_cell if bound in ("R1", "R2") else _cell
    for tau_p in (1, 20, TAU_U - 1, TAU_U):
        qs = _block_crossing_row(name) if bound in ("R3", "Ra") and tau_p == 20 else ROW
        want = [cell(bound, cfg, tau_p, min(float(q) / cfg.K, 1.0)) for q in qs]
        values, errs, ns = (part[0].tolist() for part in bound_grid(bound, cfg, [tau_p], qs))
        assert list(zip(values, errs, ns)) == want
        for q, (v, err, n) in zip(qs[::7], want[::7]):
            res = bound_at(bound, cfg, tau_p, float(q))
            assert (res.value, res.mc_std_err, res.mc_samples) == (v, err, n)
    # zero prelog: every cell is 0 with no Monte Carlo error
    assert not any(part.any() for part in bound_grid(bound, cfg, [TAU_U], ROW))
    res = bound_at(bound, cfg, TAU_U, 30.0)
    assert (res.value, res.mc_std_err, res.mc_samples) == (0.0, 0.0, 0)


# p_a*K/K != p_a: R1 and R2 taken at p_a*K through the grid, or through
# bound_at, move in the last bit
P_A_OFF_GRID = 0.16170532667249132


@pytest.mark.parametrize("bound", ["R1", "R2", "R3", "Ra"])
def test_point_takes_p_a_as_given(bound):
    cfg = SystemConfig(M=100, K=800, tau_u=100, tau_p=20, p_a=P_A_OFF_GRID, model=UniformPowerError(10.0, 0.5),
                       seed=3, mc=McConfig(n_beta_samples=400))
    cell = _averaged_cell if bound in ("R1", "R2") else _cell
    res = BOUNDS[bound](cfg)
    assert (res.value, res.mc_std_err, res.mc_samples) == cell(bound, cfg, 20, P_A_OFF_GRID)
    assert P_A_OFF_GRID * cfg.K / cfg.K != P_A_OFF_GRID


def test_grid_opt_on_r1_keeps_only_pools(monkeypatch, search_grid):
    # F rows live only inside a row call: the memo holds the cfg's gain pool alone
    pool: dict = {}
    monkeypatch.setattr(bounds, "_POOL", pool)
    cfg = _cfg("ring-0.25")
    search_grid(4, 6, 3)
    grid_opt("R1", cfg)
    assert list(pool) == [(cfg.model, cfg.mc.n_beta_samples, cfg.seed)]


def test_grid_stages_equal_bound_at(search_grid):
    # every cell of both stages of an R1-opt grid, and of the same stages
    # under R2, taken whole with the stage's shared activation windows,
    # equals the cell alone
    cfg = _cfg("ring-0.25")
    search_grid(5, 7, 4)
    tps, qs = _stage_one(cfg)
    stage_one = bound_grid("R1", cfg, tps, qs)
    r, j = np.unravel_index(int(np.argmax(stage_one[0])), stage_one[0].shape)
    tps2, qs2 = _stage_two(cfg, tps, qs, int(tps[r]), float(qs[j]))
    stages = [("R1", tps, qs, stage_one), ("R1", tps2, qs2, bound_grid("R1", cfg, tps2, qs2))]
    stages += [("R2", tps, qs, bound_grid("R2", cfg, tps, qs)) for _, tps, qs, _ in stages]
    assert (tps.size, qs.size, tps2.size, qs2.size) == (5, 7, 4, 4)
    for bound, tps, qs, (values, errs, ns) in stages:
        assert values.shape == errs.shape == ns.shape == (len(tps), len(qs))
        for r, tp in enumerate(tps):
            got = list(zip(values[r].tolist(), errs[r].tolist(), ns[r].tolist()))
            want = [(b.value, b.mc_std_err, b.mc_samples) for b in (bound_at(bound, cfg, tp, float(q)) for q in qs)]
            assert got == want, (bound, tp)


@pytest.mark.parametrize("bound", ["R3", "Ra"])
@pytest.mark.parametrize("name", list(MODELS))
def test_stage_equals_cells(bound, name):
    # a default 25x25 stage in one call, its last row at tau_p = tau_u, with
    # two p_aK = 0 columns: every cell equals the cell alone
    cfg = _cfg(name)
    tps = np.unique(np.round(np.linspace(1, TAU_U, 25)).astype(int))
    qs = np.insert(np.geomspace(1.0, K, 25), [0, 12], 0.0)
    assert tps.size == 25 and tps[-1] == TAU_U
    want = [[_cell(bound, cfg, int(tp), float(q) / K)[0] for q in qs] for tp in tps]
    assert _analytic_stage(bound, cfg, tps, qs / K).tolist() == want


def test_stage_handles_zero_activity_and_rejects_long_pilots():
    cfg = _cfg("uniform-0.5")
    stage = _analytic_stage("Ra", cfg, [20, TAU_U], [0.0, 30 / K, 0.0])
    assert stage.shape == (2, 3)
    assert stage[0, 0] == stage[0, 2] == 0.0 and not stage[1].any()
    assert stage[0, 1] == _cell("Ra", cfg, 20, 30 / K)[0]
    with pytest.raises(ValueError, match=rf"tau_p must be an integer in \[1, tau_u={TAU_U}\] \(got {TAU_U + 1}\)"):
        bounds._cells("Ra", cfg, [20, TAU_U + 1], [30 / K])
    # sparse activity is an error wherever the cell is live, not on a zero-prelog row
    with pytest.raises(ValueError, match="sparse activity"):
        _analytic_stage("R3", cfg, [20, TAU_U], [30 / K, 0.5 / K])
    assert not _analytic_stage("R3", cfg, [TAU_U], [0.5 / K]).any()


@pytest.mark.parametrize("bound", ["R1", "R2", "R3", "Ra"])
@pytest.mark.parametrize("tau_p", [0, -5, TAU_U + 1])
def test_every_bound_rejects_pilot_lengths_outside_one_to_tau_u(bound, tau_p):
    # a grid reports a pilot length out of range as bound_at does, rather than a rate
    cfg = _cfg("uniform-0.5")
    message = rf"tau_p must be an integer in \[1, tau_u={TAU_U}\] \(got {tau_p}\)"
    with pytest.raises(ValueError, match=message):
        bound_grid(bound, cfg, [20, tau_p], [30.0])
    with pytest.raises(ValueError, match=message):
        bound_at(bound, cfg, tau_p, 30.0)


@pytest.mark.parametrize("bad", [math.nan, -1e6])
def test_r3_stage_rejects_non_positive_interference(monkeypatch, bad):
    # an explicit error, not an assert, so the check survives python -O
    nodes, w = np.array([10.0, bad, 12.0]), np.full(3, 1.0 / 3.0)
    monkeypatch.setattr(channels, "beta_nodes", lambda *args, **kwargs: (nodes, w))
    with pytest.raises(ValueError, match="interference power"):
        _analytic_stage("R3", _cfg("uniform-0.5"), [20, 40], np.array([2.0, 30.0, 400.0]) / K)


@pytest.mark.parametrize("name", ["uniform-0.5", "lognormal-4"])
def test_r3_rejects_sparse_activity(name):
    cfg = _cfg(name)
    with pytest.raises(ValueError):
        bound_grid("R3", cfg, [20], np.array([0.5, 2.0, 30.0]))
    with pytest.raises(ValueError):
        bound_at("R3", cfg, 20, 0.5)
    with pytest.raises(ValueError):
        _cell("R3", cfg, 20, 0.5 / K)


def _stage_one(cfg):
    """grid_opt's stage-one pilot lengths and p_a*K values, from its constants."""
    tps = np.unique(np.round(np.linspace(1, cfg.tau_u, optimize.TAU_P_POINTS)).astype(int))
    return tps, np.geomspace(min(optimize.PAK_MIN, float(cfg.K)), cfg.K, optimize.PAK_POINTS)


def _stage_two(cfg, tps, qs, tau_p, q):
    """grid_opt's stage-two grid across the stage-one cell (tau_p, q) of ``tps`` x ``qs``."""
    i = int(np.searchsorted(tps, tau_p))
    tps2 = np.unique(np.round(np.linspace(tps[max(i - 1, 0)], tps[min(i + 1, tps.size - 1)],
                                          optimize.REFINE_POINTS)).astype(int))
    j = int(np.searchsorted(qs, q))
    ratio = qs[min(j + 1, qs.size - 1)] / qs[j]
    q_lo2 = max(q / max(ratio, 1.0), float(qs[0]))
    q_hi2 = min(q * max(ratio, 1.0), float(cfg.K))
    return tps2, np.geomspace(q_lo2, q_hi2, optimize.REFINE_POINTS) if q_hi2 > q_lo2 else np.array([q])


def _reference_grid_opt(cost, cfg):
    """Two-stage grid search on grid_opt's constants, one bound_at call per cell, first strict maximum wins.

    Returns (tau_p, p_aK, rate, evaluations, mc_std_err)."""
    evals, best = 0, (-math.inf, None, None, None)

    def sweep(tp_list, q_list):
        nonlocal evals, best
        for tp in tp_list:
            for q in q_list:
                res = bound_at(cost, cfg, tp, float(q))
                evals += 1
                if res.value > best[0]:
                    best = (res.value, int(tp), float(q), res.mc_std_err)

    tps, qs = _stage_one(cfg)
    sweep(tps, qs)
    sweep(*_stage_two(cfg, tps, qs, best[1], best[2]))
    value, tau_p, q, err = best
    return tau_p, q, value, evals, err


# (stage-one pilot lengths, p_a*K values, refinement points) per cost; R1,
# pruned by its ceiling, on grids small enough for a cell-by-cell search
SEARCH_GRIDS = {"R1": ((6, 9, 4), (4, 14, 5)), "R3": ((12, 14, 6), (5, 60, 50)), "Ra": ((12, 14, 6), (5, 60, 50))}


@pytest.mark.parametrize("cost", list(SEARCH_GRIDS))
@pytest.mark.parametrize("name", list(MODELS))
def test_grid_opt_equals_cell_by_cell_search(cost, name, search_grid):
    cfg = _cfg(name, seed=5)
    for grid in SEARCH_GRIDS[cost]:
        search_grid(*grid)
        got = grid_opt(cost, cfg)
        want = _reference_grid_opt(cost, cfg)
        assert (got.tau_p_opt, got.p_aK_opt, got.rate, got.evaluations, got.bound.mc_std_err) == want


# R1-opt's pruning at its edges, each as (model, config changes, search grid);
# on the first two, the first ceiling pass rules out every cell but its top one
R1_EDGES = {
    "empty-sub-grid": ("uniform-0.5", {}, (3, 3, 3)),
    "one-cell-grid": ("uniform-0.5", {}, (1, 1, 3)),
    "K-10": ("uniform-0.5", {"K": 10}, (6, 9, 4)),
    "M-2": ("ring-0.25", {"M": 2}, (6, 9, 4)),
    "degenerate": ("power-controlled", {}, (6, 9, 4)),
    "eps-tail-0.05": ("lognormal-4", {"mc": McConfig(n_beta_samples=200, eps_tail=0.05)}, (6, 9, 4)),
}


@pytest.mark.parametrize("case", list(R1_EDGES))
def test_r1_grid_opt_equals_cell_by_cell_search_at_its_edges(case, search_grid, monkeypatch):
    name, changes, grid = R1_EDGES[case]
    cfg = replace(_cfg(name, seed=5), **changes)
    search_grid(*grid)
    spacings, ceiling = [], optimize.r1_ceiling
    monkeypatch.setattr(optimize, "r1_ceiling", lambda *args: spacings.append(args[-1]) or ceiling(*args))
    got = grid_opt("R1", cfg)
    tau_p, q, value, _, err = _reference_grid_opt("R1", cfg)
    assert (got.tau_p_opt, got.p_aK_opt, got.rate, got.bound.mc_std_err) == (tau_p, q, value, err)
    if case in ("empty-sub-grid", "one-cell-grid"):
        # a stage-one pass that leaves only its top cell takes no finer pass
        assert spacings == [optimize.HEAD_SPACINGS[0]]
