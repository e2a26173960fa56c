"""The averaged-bound engine against the engines it replaced.

The first reference below is the earlier per-cell engine, kept apart from
names: every cell redraws its gain pool, rebuilds the prefix sums and loops
over the active counts K_a, forming one (samples x colliders) block per K_a
from a collision window grown greedily from the mode, one binomial at a
time, with ``scipy.stats`` masses. The engine computes each F row once per
pilot length and finds all collision windows of a pilot length in one
vectorized pass.

The second is the per-row kernel that the engine's shared R1/R2 row
formula replaced: R1 rows through ``_sinr1_from_sums`` below, R2 rows
through ``reference.sinr2``, each row's SINR block built whole and summed
over the colliders by an explicit loop in ascending collider count. The
kernel's rows must equal it bit for bit, computed alone and inside a wider
union of rows; the kernel is read one cell per K_a with coefficient 1.0,
whose sum is the row itself (0.0 + 1.0 x == x).
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from pilothop.access import CollisionLaw, binom_pmf, binom_windows, truncate_support
from pilothop import access, bounds
from pilothop.bounds import McConfig, r1_bar, r2_bar
from pilothop.channels import (
    LogNormalShadowing,
    RingPathLoss,
    UniformPowerError,
    analytic_moments,
    is_degenerate,
    sample_beta,
)
from pilothop.config import SystemConfig
from reference import sinr2


def _ref_pmf(k, n, p):
    """Binomial(n, p) mass at k through scipy.stats, log-gamma for extreme p."""
    k = np.asarray(k)
    if p == 0.0:
        return np.where(k == 0, 1.0, 0.0)
    if p == 1.0:
        return np.where(k == n, 1.0, 0.0)
    if p < 1e-6 or p > 1.0 - 1e-6:
        return np.exp(gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
                      + k * np.log(p) + (n - k) * np.log1p(-p))
    return stats.binom.pmf(k, n, p)


def _ref_window(n, p, eps, pmf=_ref_pmf):
    """Minimal window of Binomial(n, p): a band around the mode, then grow
    one neighbour at a time, the heavier first (left on ties)."""
    if p in (0.0, 1.0) or n == 0:
        k = int(round(n * p))
        return k, k, 1.0
    mode = min(n, int((n + 1) * p))
    half = int(6.5 * math.sqrt(n * p * (1.0 - p))) + 12
    while True:
        w_lo, w_hi = max(0, mode - half), min(n, mode + half)
        pm = np.atleast_1d(pmf(np.arange(w_lo, w_hi + 1), n, p))
        if float(pm.sum()) >= 1.0 - eps or (w_lo == 0 and w_hi == n):
            break
        half *= 2
    target = min(1.0 - eps, float(pm.sum()))
    i = j = mode - w_lo
    mass = float(pm[i])
    while mass < target:
        left = pm[i - 1] if i > 0 else -1.0
        right = pm[j + 1] if j + 1 < pm.size else -1.0
        if left >= right:
            i -= 1
            mass += left
        else:
            j += 1
            mass += right
    return w_lo + i, w_lo + j, min(mass, 1.0)


@functools.cache
def _ref_cells(n, p, eps, k_min=0):
    """(values, masses) over the window of Binomial(n, p), cut below at k_min."""
    lo, hi, _ = _ref_window(n, p, eps)
    ks = np.arange(max(lo, k_min), hi + 1)
    return ks, np.atleast_1d(_ref_pmf(ks, n, p))


def _ref_averaged_bound(cfg, *, use_sinr2=False):
    """(value, std_err, n_samples) of the averaged bound, one cell at a time."""
    tau_p, tau_u, M, K, model, mc = cfg.tau_p, cfg.tau_u, cfg.M, cfg.K, cfg.model, cfg.mc
    prelog = (tau_u - tau_p) / tau_u
    if cfg.p_a == 0.0 or prelog == 0.0:
        return 0.0, 0.0, 0
    kas, act_w = _ref_cells(K, cfg.p_a, mc.eps_tail, 1)
    if kas.size == 0:
        return 0.0, 0.0, 0
    exact = is_degenerate(model)
    n = 1 if exact else mc.n_beta_samples
    pool = np.empty((n, int(kas[-1])))
    for j in range(pool.shape[1]):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, j))))
        pool[:, j] = sample_beta(model, rng, n)
    b0 = pool[:, :1]
    zero = np.zeros((n, 1))
    cum = np.concatenate([zero, np.cumsum(pool, axis=1)], axis=1)
    cum_sq = np.concatenate([zero, np.cumsum(pool * pool, axis=1)], axis=1)
    moments = analytic_moments(model)
    total_s = np.zeros(n)
    for K_a, w_a in zip(kas.tolist(), act_w):
        cs, coll_w = _ref_cells(K_a - 1, 1.0 / tau_p, mc.eps_tail)
        if use_sinr2:
            s = sinr2(cs[None, :], K_a, b0, moments, tau_p, M)
        else:
            coll_sum = cum[:, 1 + cs] - cum[:, [1]]
            coll_sq = cum_sq[:, 1 + cs] - cum_sq[:, [1]]
            other_sum = cum[:, [K_a]] - cum[:, 1 + cs]
            total, sq = b0 + coll_sum, b0 * b0 + coll_sq
            den = (tau_p * (M - 1) * coll_sq + total + tau_p * (total * total - sq)
                   + (1.0 + other_sum) * (1.0 + tau_p * total))
            s = tau_p * (M - 1) * b0 * b0 / den
        total_s += np.log2(1.0 + s) @ (w_a * K_a * prelog * coll_w)
    value = float(total_s.mean())
    if exact:
        return value, 0.0, 0
    return value, float(total_s.std(ddof=1) / math.sqrt(n)), n


MODELS = {
    "ring": RingPathLoss(10.0, 0.25),
    "spread": UniformPowerError(10.0, 0.5),
    "shadowed": LogNormalShadowing(10.0, 0.25),
    "power-controlled": UniformPowerError(10.0, 0.0),
}
# (K, tau_p, p_a*K) at tau_u = 100; tau_p = 1 puts every collider on the one pilot
CELLS = [(K, tau_p, q) for K in (60, 800) for tau_p, q in ((1, 5.0), (3, 40.0), (17, 12.0), (40, 55.0), (99, 2.0))]
CELLS += [(800, 7, 400.0), (800, 33, 800.0), (800, 1, 30.0)]


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_engine_matches_per_cell_reference(model):
    for K, tau_p, q in CELLS:
        cfg = SystemConfig(M=100, K=K, tau_u=100, tau_p=tau_p, p_a=min(q / K, 1.0), model=model, seed=5,
                           mc=McConfig(n_beta_samples=300))
        v1, e1, n1 = _ref_averaged_bound(cfg)
        got = r1_bar(cfg)
        assert _rel(got.value, v1) <= 1e-12 and got.mc_samples == n1, (K, tau_p, q)
        assert _rel(got.mc_std_err, e1) <= 1e-12, (K, tau_p, q)
        v2, _, _ = _ref_averaged_bound(cfg, use_sinr2=True)
        assert _rel(r2_bar(cfg).value, v2) <= 1e-12, (K, tau_p, q)


def test_engine_matches_per_cell_reference_at_mmtc_scale(ring):
    cfg = SystemConfig(M=100, K=10**5, tau_u=100, tau_p=33, p_a=30 / 10**5, model=ring, seed=7)
    v1, e1, _ = _ref_averaged_bound(cfg)
    got = r1_bar(cfg)
    assert _rel(got.value, v1) <= 1e-12
    assert _rel(got.mc_std_err, e1) <= 1e-12
    v2, _, _ = _ref_averaged_bound(cfg, use_sinr2=True)
    assert _rel(r2_bar(cfg).value, v2) <= 1e-12


def test_collision_windows_match_greedy_reference():
    # every (K_a, tau_p) cell up to K_a = 800, tau_p = 120: the engine's
    # batched windows, one tau_p per call, against the one-binomial-at-a-time
    # greedy and against truncate_support
    eps = 1e-9
    kas = np.arange(1, 801)
    for tau_p in range(1, 121):
        p = 1.0 / tau_p
        lo, hi, covered, masses = binom_windows(kas - 1, p, eps)
        for i, K_a in enumerate(kas.tolist()):
            want = _ref_window(K_a - 1, p, eps, pmf=binom_pmf)
            assert (lo[i], hi[i], covered[i]) == want, (K_a, tau_p)
            assert np.array_equal(masses[i], np.atleast_1d(binom_pmf(np.arange(want[0], want[1] + 1), K_a - 1, p)))
            sup = truncate_support(CollisionLaw(K_a, tau_p), eps)
            assert (sup.lo, sup.hi, sup.covered_mass) == want, (K_a, tau_p)


def _windows(ns, p, eps):
    lo, hi, covered, masses = binom_windows(ns, p, eps)
    return lo.tolist(), hi.tolist(), covered.tolist(), [m.tolist() for m in masses]


def test_window_chunks_keep_every_bit(monkeypatch):
    # rows taken a few at a time, or one at a time, give the windows and
    # masses of the default chunks: collision windows on part of the grid
    # above (eps 1e-15 doubles some bands and leaves some targets out of
    # reach), activation windows at K = 1e5 for the default grid's p_a
    cases = [(np.arange(800), 1.0 / tau_p, eps) for tau_p in (1, 2, 3, 7, 20, 61, 120) for eps in (1e-9, 1e-15)]
    cases += [(10**5, np.geomspace(1.0, 10**5, 25) / 10**5, eps) for eps in (1e-9, 1e-15)]
    want = [_windows(*case) for case in cases]
    for entries in (1, 500, 5000):
        monkeypatch.setattr(access, "WINDOW_ENTRIES", entries)
        for case, expected in zip(cases, want):
            assert _windows(*case) == expected, (entries, case[1], case[2])


def _sinr1_from_sums(b0, b0_sq, coll_sum, coll_sq, other_sum, tau_p, M):
    """Closed-form per-scenario SINR from collider sum statistics (vectorized)."""
    total = b0 + coll_sum
    sq = b0_sq + coll_sq
    den = (
        tau_p * (M - 1) * coll_sq
        + total
        + tau_p * (total * total - sq)
        + (1.0 + other_sum) * (1.0 + tau_p * total)
    )
    return tau_p * (M - 1) * b0_sq / den


def _ordered_sum(weights, rows):
    """``sum_c weights[c] rows[c]``, added row after row from c = 0."""
    acc = np.zeros(rows.shape[1:])
    for w, row in zip(weights, rows):
        acc += w * row
    return acc


def _ref_row(kind, cfg, K_a):
    """The F row at K_a of the config's table, its SINR block built whole."""
    n = 1 if is_degenerate(cfg.model) else cfg.mc.n_beta_samples
    cum, cum_sq = bounds._prefix_sums(cfg.model, n, K_a, cfg.seed)
    b0, b0_sq = cum[1], cum_sq[1]
    (c_lo,), _, _, (coll_w,) = binom_windows([K_a - 1], 1.0 / cfg.tau_p, cfg.mc.eps_tail)
    cols = slice(1 + c_lo, 1 + c_lo + coll_w.size)
    if kind == "R2":
        cs = np.arange(c_lo, c_lo + coll_w.size)[:, None]
        s = sinr2(cs, K_a, b0, analytic_moments(cfg.model), cfg.tau_p, cfg.M)
    else:
        upto = cum[cols]
        s = _sinr1_from_sums(b0, b0_sq, upto - b0, cum_sq[cols] - b0_sq, cum[K_a] - upto, cfg.tau_p, cfg.M)
    return _ordered_sum(coll_w, np.log2(1.0 + s))


def _cell_kas(cfg):
    """The active counts of the config's cell: its activation window, from K_a = 1."""
    (a_lo,), (a_hi,), _, _ = binom_windows([cfg.K], cfg.p_a, cfg.mc.eps_tail)
    return list(range(max(int(a_lo), 1), int(a_hi) + 1))


def _kernel_rows(kind, cfg, kas):
    """The kernel's F rows at ``kas`` for the config's table, as (len(kas), samples)."""
    n = 1 if is_degenerate(cfg.model) else cfg.mc.n_beta_samples
    cum, cum_sq = bounds._prefix_sums(cfg.model, n, max(kas), cfg.seed)
    moments = analytic_moments(cfg.model) if kind == "R2" else None
    cells = [(K_a, [1.0]) for K_a in kas]
    return bounds._f_row_sums(cum, cum_sq, cells, cfg.tau_p, cfg.M, cfg.mc.eps_tail, moments)[0]


ROW_MODELS = {k: MODELS[k] for k in ("ring", "spread", "shadowed")}
# (tau_p, p_a*K) per pilot length at tau_u = 100, p_a*K capped at K; tau_p = 1 puts every collider on one pilot
ROW_CELLS = ((1, 5.0), (7, 30.0), (33, 30.0), (60, 55.0))


@pytest.mark.parametrize("kind", ["R1", "R2"])
@pytest.mark.parametrize("model", ROW_MODELS.values(), ids=ROW_MODELS.keys())
def test_engine_rows_equal_per_row_formula(model, kind):
    fn = r1_bar if kind == "R1" else r2_bar
    for K in (60, 800, 10**5):
        for tau_p, q in ROW_CELLS:
            cfg = SystemConfig(M=100, K=K, tau_u=100, tau_p=tau_p, p_a=min(q, K) / K, model=model, seed=9,
                               mc=McConfig(n_beta_samples=700))
            kas = _cell_kas(cfg)
            alone = _kernel_rows(kind, cfg, kas)
            for K_a, row in zip(kas, alone):
                assert np.array_equal(row, _ref_row(kind, cfg, K_a)), (K, tau_p, K_a)
            # the same rows inside a union of every K_a up to twice the
            # window's top, whose collision windows reach further
            wide = _kernel_rows(kind, cfg, list(range(1, min(2 * kas[-1], K) + 1)))
            assert np.array_equal(wide[kas[0] - 1:kas[-1]], alone), (K, tau_p)
            # the cell alone and the cell in a row next to a sparser one
            cell = fn(cfg)
            terms = bounds._activation_terms(cfg, np.array([cfg.p_a * 0.6, cfg.p_a]))
            values, errs, ns = bounds._averaged_row(cfg, tau_p, terms, use_sinr2=kind == "R2")
            assert (values[1], errs[1], ns[1]) == (cell.value, cell.mc_std_err, cell.mc_samples), (K, tau_p)


def test_collider_sum_is_the_ordered_loop():
    # every column of every tile 1 to 9 wide, at every offset, contiguous or
    # a view of the block, has the bits of the ordered loop over the colliders
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5, 301, 4099):
        for w in (1, 2, 3, 17, 71):
            x = np.log2(1.0 + 10.0 * rng.random((w, n)))
            coll_w = rng.random(w)
            want = _ordered_sum(coll_w, x)
            for width in range(1, min(n, 9) + 1):
                for a in range(n - width + 1):
                    tile = x[:, a:a + width]
                    for got in (bounds._collider_sum(coll_w, tile),
                                bounds._collider_sum(coll_w, np.ascontiguousarray(tile))):
                        assert np.array_equal(got, want[a:a + width]), (n, w, width, a)


def test_sample_blocks_keep_every_bit(monkeypatch):
    # sample blocks must not move a bit of any row: the collider sum of each
    # tile against that of the whole block, and engine cells and their F
    # rows computed in narrow sample blocks against the same in one block
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 7, 301, 302, 303, 700, 1003, 4097, 4098, 4099, 20001, 50003):
        for w in (1, 2, 3, 5, 17, 40, 71):
            x = np.log2(1.0 + 10.0 * rng.random((w, n)))
            coll_w = rng.random(w)
            whole = bounds._collider_sum(coll_w, x)
            for width in (1, 2, 3, 4, 8, 12, 20, 64, 1000, 4096):
                monkeypatch.setattr(bounds, "ROW_BLOCK_ENTRIES", width)
                tiles = bounds._sample_blocks(n, 1)
                got = np.concatenate([bounds._collider_sum(coll_w, np.ascontiguousarray(x[:, a:b])) for a, b in tiles])
                assert np.array_equal(got, whole), (n, w, width)
    for n in (301, 302, 303, 1004):
        for kind, fn in (("R1", r1_bar), ("R2", r2_bar)):
            for tau_p, q in ROW_CELLS:
                cfg = SystemConfig(M=100, K=800, tau_u=100, tau_p=tau_p, p_a=q / 800, model=MODELS["ring"],
                                   seed=4, mc=McConfig(n_beta_samples=n))
                kas, cells = _cell_kas(cfg), []
                for entries in (1 << 40, 4, 48, 1000):
                    monkeypatch.setattr(bounds, "ROW_BLOCK_ENTRIES", entries)
                    res = fn(cfg)
                    cells.append((res.value, res.mc_std_err, _kernel_rows(kind, cfg, kas).tobytes()))
                assert all(c == cells[0] for c in cells), (kind, n, tau_p)


def test_sample_blocks_tile_within_the_entry_budget(monkeypatch):
    # blocks of max(1, entries // span) samples, the last taking what is left,
    # each within the entry budget wherever one sample fits in it
    for entries in (1, 4, 48, 1000, 1 << 18):
        monkeypatch.setattr(bounds, "ROW_BLOCK_ENTRIES", entries)
        for n in (1, 3, 4, 5, 7, 9, 500, 700, 4099, 50000):
            for span in (1, 3, 70, 800, 900, 40000):
                tiles = bounds._sample_blocks(n, span)
                lengths = [b - a for a, b in tiles]
                width = max(1, entries // span)
                assert tiles[0][0] == 0 and tiles[-1][1] == n
                assert all(b == c for (_, b), (c, _) in zip(tiles, tiles[1:]))
                assert all(length == width for length in lengths[:-1]) and 1 <= lengths[-1] <= width
                assert len(tiles) == -(-n // width)
                if span <= entries:
                    assert max(lengths) * span <= entries
