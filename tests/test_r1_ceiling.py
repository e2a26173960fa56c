"""R1-opt's pruning against the cells it stands for.

``bounds.r1_ceiling`` rests on a lemma about the F row: for every K_a >= k,
per gain sample, F[K_a] <= F[k] + (1 - covered_k) log2(1 + (M-1) b0). The
lemma is checked on the kernel's own rows, the ceiling at every spacing of
``HEAD_SPACINGS`` on every cell of a full stage-one grid, and the pruned
search for the share of the kernel's work it still does. Both checks of a
bound allow the relative margin that ``grid_opt`` allows.
"""

import numpy as np
import pytest

from pilothop import bounds, optimize
from pilothop.access import binom_windows
from pilothop.bounds import HEAD_SPACINGS, McConfig, bound_grid, r1_ceiling
from pilothop.channels import LogNormalShadowing, RingPathLoss, UniformPowerError, is_degenerate
from pilothop.config import SystemConfig
from pilothop.optimize import CEILING_REL_TOL, grid_opt
from test_analytic_row_oracle import _stage_one

M, K = 100, 800
LAWS = {
    "ring-0.25": RingPathLoss(10.0, 0.25),
    "uniform-0.5": UniformPowerError(10.0, 0.5),
    "lognormal-4": LogNormalShadowing(10.0, 4.0),
    "lognormal-16": LogNormalShadowing(10.0, 16.0),
    "degenerate": UniformPowerError(10.0, 0.0),
}


# eps_tail 1e-2 truncates enough of the collision windows that F alone,
# without its tail term, breaks the lemma for most laws and pilot lengths
@pytest.mark.parametrize("eps", [1e-9, 1e-2])
@pytest.mark.parametrize("tau_p", [1, 6, 20, 60])
@pytest.mark.parametrize("name", list(LAWS))
def test_f_falls_in_the_active_count_up_to_the_truncated_tail(name, tau_p, eps):
    model, top = LAWS[name], 300
    n = 1 if is_degenerate(model) else 200
    cum, cum_sq = bounds._prefix_sums(model, n, top, 5)
    kas = np.arange(1, top + 1)
    f, covered = bounds._f_row_sums(cum, cum_sq, [(int(k), [1.0]) for k in kas], tau_p, M, eps, None)
    # the lowest F[k] + tail over k <= K_a, per sample
    ceiling = np.minimum.accumulate(f + (1.0 - covered)[:, None] * np.log2(1.0 + (M - 1) * cum[1]), axis=0)
    assert (f * (1.0 - CEILING_REL_TOL) <= ceiling).all()
    assert (f[:-1] > f[1:]).any()  # F does fall somewhere, so the check bites


STAGE_CASES = pytest.mark.parametrize(("name", "tau_u", "samples", "eps", "slack"), [
    ("ring-0.25", 120, 500, 1e-9, 1.05), ("lognormal-16", 60, 200, 1e-9, 1.05), ("ring-0.25", 120, 200, 0.1, 1.5)])


# the last case truncates a tenth of each collision window: one cell of its
# stage needs the ceiling's tail term, which loosens the ceiling at the best cell
@STAGE_CASES
def test_ceiling_covers_every_cell_of_a_stage(name, tau_u, samples, eps, slack):
    mc = McConfig(n_beta_samples=samples, eps_tail=eps)
    cfg = SystemConfig(M=M, K=K, tau_u=tau_u, model=LAWS[name], seed=3, mc=mc)
    tps, qs = _stage_one(cfg)
    whole = bound_grid("R1", cfg, tps, qs)
    values = whole[0]
    # every spacing of the ladder covers the whole stage, not only the sub-grid it is taken on
    for spacing in HEAD_SPACINGS:
        ceiling = r1_ceiling(cfg, tps, qs, spacing)
        assert ceiling.shape == values.shape == (25, 25)
        assert (ceiling >= values * (1.0 - CEILING_REL_TOL)).all(), spacing
    # the finest ceiling tells cells apart: close above the best cell
    at = np.unravel_index(np.argmax(values), values.shape)
    assert ceiling[at] <= slack * values[at]
    # the stage grid_opt takes: the cells it evaluates keep their bits, and the first maximum stays
    pruned = optimize._r1_stage(cfg, tps, qs)
    kept = np.isfinite(pruned[0])
    assert all((part[kept] == full[kept]).all() for part, full in zip(pruned, whole))
    assert np.argmax(pruned[0]) == np.argmax(values)


@STAGE_CASES
def test_r1_stage_evaluates_exactly_the_cells_whose_ceilings_reach_the_floor(name, tau_u, samples, eps, slack):
    # the kept set, rebuilt cell by cell: the floor is the coarsest ceiling's top cell, evaluated,
    # less CEILING_REL_TOL, and a cell stays while its ceiling at every spacing reaches the floor
    mc = McConfig(n_beta_samples=samples, eps_tail=eps)
    cfg = SystemConfig(M=M, K=K, tau_u=tau_u, model=LAWS[name], seed=3, mc=mc)
    tps, qs = _stage_one(cfg)
    coarse = r1_ceiling(cfg, tps, qs, HEAD_SPACINGS[0])
    top = tuple(int(i) for i in np.unravel_index(np.argmax(coarse), coarse.shape))
    floor = bound_grid("R1", cfg, tps[[top[0]]], qs[[top[1]]])[0][0, 0] * (1.0 - CEILING_REL_TOL)
    kept = {(int(r), int(c)) for r, c in zip(*np.nonzero(coarse >= floor))} - {top}
    for spacing in HEAD_SPACINGS[1:]:
        rows, cols = sorted({r for r, _ in kept}), sorted({c for _, c in kept})
        ceiling = r1_ceiling(cfg, tps[rows], qs[cols], spacing)
        at = {cell: ceiling[rows.index(cell[0]), cols.index(cell[1])] for cell in kept}
        kept = {cell for cell, value in at.items() if value >= floor}
    pruned = optimize._r1_stage(cfg, tps, qs)
    assert {(int(r), int(c)) for r, c in zip(*np.nonzero(np.isfinite(pruned[0])))} == kept | {top}


def _kernel_entries(cum, cells, tau_p, eps):
    """(K_a, collider count, sample) entries of one _f_row_sums call: each K_a's collision window, per sample."""
    kas = sorted({k_lo + t for k_lo, coeffs in cells for t in range(len(coeffs))})
    lo, hi, _, _ = binom_windows(np.array(kas) - 1, 1.0 / tau_p, eps)
    return cum.shape[1] * int((hi - lo + 1).sum())


def test_pruned_r1_opt_does_under_8_percent_of_the_kernel_work(monkeypatch, ring):
    # at the fig6 ring point (790 cells searched), the ceilings and the cells
    # they keep take at most 8% of the F-row entries of every cell (6.7%), and
    # each ceiling row takes its collision windows from the one binom_windows
    # call of its kernel call
    cfg = SystemConfig(M=M, K=K, tau_u=120, model=ring, seed=3, mc=McConfig(n_beta_samples=500))
    kernel, ceiling, grid, windows = bounds._f_row_sums, optimize.r1_ceiling, optimize.bound_grid, bounds.binom_windows
    done, calls, ceilings, grids = [0], [0], [], []

    def counted(cum, cum_sq, cells, tau_p, *rest):
        done[0] += _kernel_entries(cum, cells, tau_p, cfg.mc.eps_tail)
        return kernel(cum, cum_sq, cells, tau_p, *rest)

    def called(*args):
        calls[0] += 1
        return windows(*args)

    def recorded(cfg, tau_ps, p_aK, spacing):
        before = calls[0]
        out = ceiling(cfg, tau_ps, p_aK, spacing)
        # one call for the activation windows, then one per pilot length with a prelog
        ceilings.append((tau_ps, p_aK, calls[0] - before, 1 + int(np.count_nonzero(tau_ps < cfg.tau_u))))
        return out

    def logged(bound, cfg, tau_ps, p_aK):
        grids.append((tau_ps, p_aK))
        return grid(bound, cfg, tau_ps, p_aK)

    monkeypatch.setattr(bounds, "_f_row_sums", counted)
    monkeypatch.setattr(bounds, "binom_windows", called)
    monkeypatch.setattr(optimize, "r1_ceiling", recorded)
    monkeypatch.setattr(optimize, "bound_grid", logged)
    res = grid_opt("R1", cfg)
    assert (res.tau_p_opt, res.p_aK_opt, res.evaluations) == (39, 40.46389372560529, 790)
    assert len(ceilings) == len(HEAD_SPACINGS) and all(got == want for *_, got, want in ceilings)
    assert calls[0] == 54  # two calls per ceiling row took 98
    pruned = done[0]

    def tallied(cum, cum_sq, cells, tau_p, *rest):
        done[0] += _kernel_entries(cum, cells, tau_p, cfg.mc.eps_tail)
        return np.zeros((len(cells), cum.shape[1])), None

    monkeypatch.setattr(bounds, "_f_row_sums", tallied)
    done[0] = 0
    # stage one is the first ceiling's grid, and stage two, evaluated whole, the last grid
    stages = [ceilings[0][:2], grids[-1]]
    for tps, qs in stages:
        grid("R1", cfg, tps, qs)
    assert sum(t.size * q.size for t, q in stages) == 790
    assert pruned <= 0.08 * done[0], (pruned, done[0])
