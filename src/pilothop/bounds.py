"""Achievable sum-rate lower bounds under random pilot access.

The hierarchy, from tightest to loosest:

* R1 -- per-scenario SINR conditioned on the exact collider set and the
  realized gains, averaged over the activation and collision laws and over
  the gain distribution (Monte Carlo with common random numbers).
* R2 -- collider identities averaged out of the interference variances via
  Jensen; only the reference gain stays random.
* R3 -- additionally averages the collider and active counts into the
  interference variances; fully analytic up to a 1-D gain expectation,
  taken by a 96-point Gauss rule (``beta_nodes``), so R3 and Ra carry no
  Monte Carlo error under any gain law.
* Ra -- large-system limit of R3; the optimizer's workhorse.

Every bound is a function of one scenario, a ``SystemConfig``: its gain
law is ``cfg.model`` and the averaged bounds' Monte Carlo settings are
``cfg.mc``. All rates are in bits per symbol and include the
(tau_u - tau_p)/tau_u training overhead prelog. Averaged bounds
(``r1_bar``/``r2_bar``) are deterministic for a fixed seed: the gain pool
is drawn column-wise from counter-based streams so results are identical
no matter how the enclosing experiment is parallelized, and identical
columns are reused across grid points (common random numbers) to
stabilize argmax comparisons.

Every bound has one evaluation path, ``_cells``, which takes it over a
(tau_p, p_a) grid, each cell equal, bit for bit, to the same cell alone.
``bound_grid`` is ``_cells`` at p_a = min(p_aK/K, 1);
``r1_bar``/``r2_bar``/``r3``/``ra`` are its 1x1 case at the config's p_a
as given. R1 and R2 go a row (one pilot length) at a time: the cells of a
row share its F rows, the collider averages at each active count K_a,
which ``_averaged_row`` computes in one pass of one kernel,
``_f_row_sums``, a block of gain samples at a time, keeping none after the
call. Only the prefix sums of the last gain pool built are kept, if they
fit in 32 MiB (``_POOL``). The rows of a grid share its activation
windows, taken once per grid. An R3 or Ra grid takes one ``expect_rows``
call over the memoized gain nodes (``_analytic_stage``), each block of
cells written in place by the bound's one SINR formula (``_sinr3``,
``_sinra``) at each cell's pilot length and activation level.

``r1_ceiling`` bounds every R1 cell of a grid from above at a fraction of
its cost, so a search need evaluate exactly only the cells that can win.
R1-opt takes it coarse to fine, at each spacing of ``HEAD_SPACINGS`` on
the rows and columns the last pass left, each row's collision windows
from one ``binom_windows`` call that gives both F and its tail terms.
It rests on a lemma about the kernel's own F row. Fix one gain sample, so
the pool's column order is fixed; the reference is column 0, the c
colliders columns 1..c and the other active devices columns c+1..K_a-1.

1. At fixed c, ``den_c(K_a) = A_c + (1 + cum[K_a] - cum[1+c]) B_c`` grows
   with K_a, because B_c > 0.
2. At fixed K_a, ``den_c`` grows with c: moving a gain g from the other
   devices into the colliders adds tau_p [(M-2) g^2 + g total + g (1 +
   other)] >= 0 for M >= 2 (total and other before the move). It still
   holds for c >= K_a with the other devices' sum clamped at 0.
3. Bin(K_a - 1, 1/tau_p), the collider count, is stochastically
   increasing in K_a.

So log2(1 + num/den_c) falls in both c and K_a, and for every K_a >= k,
F[K_a] <= F[k] + (1 - covered_k) log2(1 + (M-1) b0), where covered_k is
the mass of k's collision window: every den exceeds tau_p b0, so
num/den < (M-1) b0 bounds the truncated tail.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it at import, not inside a run

from .access import binom_windows
from .channels import (
    BetaMoments,
    LargeScaleModel,
    analytic_moments,
    expect_rows,
    is_degenerate,
    sample_beta,
)

if TYPE_CHECKING:
    from .config import SystemConfig


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings for the averaged bounds; their seed is the
    scenario's (``SystemConfig.seed``)."""

    n_beta_samples: int = 2000
    eps_tail: float = 1e-9

    def __post_init__(self):
        problems = mc_problems(vars(self))
        if problems:
            raise ValueError("{} {}".format(*problems[0]))


def mc_problems(v: dict) -> list[tuple[str, str]]:
    """Every violated McConfig invariant as (field, message)."""
    n, eps = v["n_beta_samples"], v["eps_tail"]
    problems = []
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        problems.append(("n_beta_samples", f"must be an integer >= 1 (got {n!r})"))
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0.0 < eps < 1.0:
        problems.append(("eps_tail", f"must be a real number in (0, 1) (got {eps!r})"))
    return problems


@dataclass(frozen=True)
class BoundResult:
    """A sum-rate value with its Monte Carlo provenance."""

    value: float
    mc_samples: int = 0
    mc_std_err: float = 0.0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rates are non-negative")
        if self.mc_samples == 0 and self.mc_std_err != 0.0:
            raise ValueError("a fully analytic result cannot carry Monte Carlo error")


def estimation_variances(beta_0: float, collider_betas, tau_p: int) -> tuple[float, float]:
    """Per-entry variances of the genie MMSE estimate and of its error.

    ``collider_betas`` are the gains sharing the reference pilot, excluding
    the reference device itself.
    """
    csum = float(np.sum(collider_betas))
    sigma_yy = tau_p * (beta_0 + csum) + 1.0
    est = tau_p * beta_0**2 / sigma_yy
    err = beta_0 * (1.0 + tau_p * csum) / sigma_yy
    return est, err


def sinr1(beta_0: float, colliders, others, tau_p: int, M: int) -> float:
    """Effective SINR of the reference device for one contamination event.

    ``colliders`` holds the gains sharing the reference pilot and ``others``
    those of the active devices on other pilots, so K_a = 1 + |colliders| +
    |others|.
    """
    if M < 2:
        raise ValueError("the combiner analysis needs M >= 2 (an M-1 array gain factor)")
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    colliders = np.asarray(colliders, dtype=float)
    others = np.asarray(others, dtype=float)
    if beta_0 <= 0 or np.any(colliders <= 0) or np.any(others <= 0):
        raise ValueError("all large-scale gains must be positive")
    members = np.concatenate(([beta_0], colliders))
    total = float(members.sum())
    num = tau_p * (M - 1) * beta_0**2
    pilot_term = tau_p * (M - 1) * float(np.sum(colliders**2))
    est_term = float(sum(b * (1.0 + tau_p * (total - b)) for b in members))
    resid_term = (1.0 + float(others.sum())) * (1.0 + tau_p * total)
    return num / (pilot_term + est_term + resid_term)


def _pow2(x):
    """x**2 by libm pow, element by element, as Python's ** takes it of a float.

    NumPy's ** squares an array by multiplying, which rounds differently
    from pow for about 1 value in 1,000; pow keeps a row of activation
    levels giving, bit for bit, what each level gives as a Python float.
    """
    return np.float_power(x, 2)


def _sinr3(b0, tau_p, p_a, moments: BetaMoments, K: int, M: int, out):
    """R3's SINR at the gains ``b0``, pilot lengths ``tau_p`` and activation probabilities ``p_a``, written into ``out``.

    ``tau_p`` and ``p_a`` broadcast against ``b0``; a stage passes (cells, 1)
    columns. With n1 = p_a K - 1 the denominator is b2m (M-1) n1 + b0 (1 + bm
    n1) - bm^2 n1 + (1 + n1 bm)(1 + b0 tau_p) + n1 bm + bm^2 (p_a^2 K (K-1) -
    n1), summed left to right in ``out`` with each step's rounding, so an
    entry has the same bits at any shape.
    """
    if M < 2:
        raise ValueError("M must be >= 2")
    bm, b2m = moments.mean, moments.mean_sq
    paK = p_a * K
    if np.any(paK < 1.0):
        raise ValueError(f"p_a*K = {np.min(paK):.3g} < 1: the averaged interference terms are meaningless; "
                         "evaluate r1_bar directly for sparse activity")
    n1 = paK - 1.0
    den = np.multiply(b0, 1.0 + bm * n1, out=out)
    den += b2m * (M - 1) * n1
    den -= bm**2 * n1
    den += (1.0 + n1 * bm) * (1.0 + b0 * tau_p)
    den += n1 * bm
    den += bm**2 * (_pow2(p_a) * K * (K - 1) - n1)
    if not den.min() > 0:
        raise ValueError("non-positive interference power: beta_0 must be positive")
    return np.divide(tau_p * (M - 1) * b0**2, den, out=den)


def _sinra(b0, tau_p, p_aK, moments: BetaMoments, M: int, out):
    """The large-system SINR at the gains ``b0``, written into ``out`` as :func:`_sinr3` writes R3's."""
    if np.any(p_aK <= 0):
        raise ValueError("p_a*K must be positive")
    bm, b2m = moments.mean, moments.mean_sq
    den = np.multiply(bm * b0, p_aK, out=out)
    den *= tau_p
    den += b2m * M * p_aK + bm**2 * _pow2(p_aK)
    return np.divide(M * tau_p * b0**2, den, out=den)


def sinra(beta_0, moments: BetaMoments, tau_p: float, p_aK: float, M: int):
    """Large-system SINR. Vectorized over beta_0 and p_aK."""
    b0, p_aK = np.asarray(beta_0, dtype=float), np.asarray(p_aK, dtype=float)
    return _sinra(b0, tau_p, p_aK, moments, M, np.empty(np.broadcast_shapes(b0.shape, p_aK.shape)))[()]


# Byte cap of the gain pool that _prefix_sums holds between calls.
STORE_CAP_BYTES = 32 * 2**20


# The one gain pool the averaged-bound engine holds: the prefix sums of the
# last (model, n, seed) built, if they fit under STORE_CAP_BYTES. A pool of n
# samples and width w takes 16 n (w + 1) bytes: at 500 samples and K=800,
# 6.4 MB; at the default 2000, 25.6 MB; at 50,000 samples the prefix sums
# exceed the cap, are not held and are rebuilt on every call.
_POOL: dict = {}


def _prefix_sums(model: LargeScaleModel, n: int, width: int, seed: int):
    """Prefix sums of the (n, width) gain pool and of its squares.

    Returns (cum, cum_sq), each (width + 1, n): row j sums pool columns
    0..j-1 in column order. Column j of the pool comes from its own
    counter-based stream, so a wider pool has the same earlier columns (and
    prefix sums); that makes common random numbers across grid points, and
    bit-identical reruns, work. Held read-only, one key at a time; a pool
    narrower than asked is dropped and the wider one built from column 0.
    """
    key = (model, n, seed)
    if key in _POOL and _POOL[key][0].shape[0] > width:
        return _POOL[key]
    _POOL.clear()
    cum, cum_sq = np.zeros((width + 1, n)), np.zeros((width + 1, n))
    for j in range(width):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, j))))
        col = sample_beta(model, rng, n)
        cum[j + 1] = cum[j] + col
        cum_sq[j + 1] = cum_sq[j] + col * col
    cum.flags.writeable = cum_sq.flags.writeable = False
    if cum.nbytes + cum_sq.nbytes <= STORE_CAP_BYTES:
        _POOL[key] = (cum, cum_sq)
    return cum, cum_sq


# (collider count, gain sample) entries in one tile of each of the F-row
# kernel's four arrays: at most 2 MiB per array while eight samples fit in it
# (span <= 32,768 collider counts); beyond, tiles of four to seven samples
ROW_BLOCK_ENTRIES = 1 << 18


def _sample_blocks(n: int, span: int) -> list[tuple[int, int]]:
    """Column ranges tiling 0..n-1 for an F-row block over ``span`` collider counts.

    ``width`` is the largest multiple of 4 with ``width * span <=
    ROW_BLOCK_ENTRIES``, or 4 if there is none. Blocks are ``width`` wide
    and the last takes what is left, unless that is under four columns: the
    last block then starts four columns earlier (merged with the one before
    when ``width`` is 4). OpenBLAS's gemv sums a column in an order set by
    whether it falls in the kernel's groups of four or in the ``n mod 4``
    tail, and a block of under four columns is summed in yet another order;
    blocks of at least four columns that start at multiples of 4 give each
    column of ``coll_w @ block`` the bits of ``coll_w @ whole`` under one
    BLAS thread (with more, OpenBLAS splits a long product into ranges of
    its own).
    """
    width = max(4, ROW_BLOCK_ENTRIES // span // 4 * 4)
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] < 4:
        starts[-1] -= 4
        if starts[-1] == starts[-2]:
            starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _f_row_sums(cum, cum_sq, cells, tau_p: int, M: int, eps_tail: float, moments: BetaMoments | None, windows=None):
    """Per-sample sums ``sum_t coeffs[t] F[k_lo + t]``, one row per (k_lo, coeffs) of ``cells``.

    F is R1's, or R2's when ``moments`` is given. Each row is computed once,
    a block of gain samples at a time, and each block is added, times its
    coefficient, to the sums of the cells that use it, in ascending K_a.
    ``windows``, if given, are the caller's collision windows of the K_a.

    Both bounds share one row formula over the collider counts c of each
    row's collision window,
    ``F[K_a] = coll_w @ log2(1 + num / (A_c + x(K_a) B_c))``:
    ``num = tau_p (M-1) b0^2``, and ``A_c``, ``B_c`` are the parts of the
    SINR denominator that depend on c and the gain sample but not on K_a,
    computed once for the union of the windows. In R1, ``A_c = tau_p (M-1)
    coll_sq + total + tau_p (total^2 - sq)``, ``B_c = 1 + tau_p total`` and
    ``x = 1 + other``, with ``other`` the summed gains of the active
    devices on the other pilots. In R2, where the gain moments replace the
    colliders' identities, ``A_c = tau_p (M-1) mean_sq c + b0 (1 + tau_p c
    mean) - c mean^2 tau_p``, ``B_c = 1 + b0 tau_p + tau_p c mean`` and
    ``x = 1 + (K_a - 1) mean`` is a number. The sum ``A_c + x B_c`` is the
    denominator summed left to right, so each row has the bits of the
    per-row formula. ``A_c`` and ``B_c`` are formed in place, each step the
    same rounding as the formula's (a sum or product with its operands
    swapped), so a block holds at most four (collider count, sample) arrays.
    """
    users: dict[int, list] = {}
    for i, (k_lo, coeffs) in enumerate(cells):
        for K_a, coeff in enumerate(coeffs, k_lo):
            users.setdefault(K_a, []).append((i, coeff))
    kas = sorted(users)
    c_lo, c_hi, _, c_w = binom_windows(np.array(kas) - 1, 1.0 / tau_p, eps_tail) if windows is None else windows
    c0, c1 = int(c_lo.min()), int(c_hi.max()) + 1
    n = cum.shape[1]
    sums = np.zeros((len(cells), n))
    gain = tau_p * (M - 1)
    blocks = _sample_blocks(n, c1 - c0)
    # A_c, B_c, the den buffer and (R1) one more term, allocated once per call as
    # separate arrays: one array of all four rows read about 0.6 MB more peak RSS
    # on the shipped bound_hierarchy spec
    tile = (c1 - c0) * max(j1 - j0 for j0, j1 in blocks)
    tiles = [np.empty(tile) for _ in range(4 if moments is None else 3)]
    for j0, j1 in blocks:
        blk = slice(j0, j1)
        b0, b0_sq = cum[1, blk], cum_sq[1, blk]
        num = gain * b0_sq
        A, B, buf, *extra = (t[:(c1 - c0) * (j1 - j0)].reshape(c1 - c0, j1 - j0) for t in tiles)
        if moments is None:
            coll_sq = np.subtract(cum_sq[1 + c0:1 + c1, blk], b0_sq, out=A)
            total = np.subtract(cum[1 + c0:1 + c1, blk], b0, out=B)
            total += b0
            sq = np.add(b0_sq, coll_sq, out=buf)
            pair = np.multiply(total, total, out=extra[0])
            pair -= sq
            pair *= tau_p
            A *= gain
            A += total
            A += pair
            B *= tau_p
            B += 1.0
        else:
            c, bm = np.arange(c0, c1)[:, None], moments.mean
            np.multiply(b0, 1.0 + tau_p * c * bm, out=A)
            A += gain * moments.mean_sq * c
            A -= c * bm**2 * tau_p
            np.add(1.0 + b0 * tau_p, tau_p * c * bm, out=B)
        flat = buf.reshape(-1)
        for K_a, lo, coll_w in zip(kas, c_lo.tolist(), c_w):
            at = slice(lo - c0, lo - c0 + coll_w.size)
            den = flat[:coll_w.size * (j1 - j0)].reshape(coll_w.size, j1 - j0)
            if moments is None:
                np.subtract(cum[K_a, blk], cum[1 + lo:1 + lo + coll_w.size, blk], out=den)
                den += 1.0
            else:
                den.fill(1.0 + (K_a - 1) * moments.mean)
            den *= B[at]
            den += A[at]
            np.divide(num, den, out=den)
            den += 1.0
            row = coll_w @ np.log2(den, out=den)
            for i, coeff in users[K_a]:
                sums[i, blk] += coeff * row
    return sums


def _activation_terms(cfg: "SystemConfig", p_a) -> list:
    """Per activation probability of ``p_a``, (k_lo, K_a p(K_a)) over its activation window from K_a = k_lo >= 1.

    ``p_a`` is a 1-D float array. The entry is None where p_a = 0 or the
    window holds no K_a >= 1. Every window comes from one
    :func:`binom_windows` call, so a grid stage takes each of its windows
    once and hands the terms to all its rows.
    """
    terms = [None] * p_a.size
    live = np.flatnonzero(p_a != 0.0)
    if live.size:
        a_lo, a_hi, _, act_w = binom_windows(cfg.K, p_a[live], cfg.mc.eps_tail)
        for i, lo, hi, w in zip(live.tolist(), a_lo.tolist(), a_hi.tolist(), act_w):
            k_lo = max(lo, 1)
            if hi >= 1:
                terms[i] = (k_lo, w[k_lo - lo:] * np.arange(k_lo, hi + 1))
    return terms


def _averaged_row(cfg: "SystemConfig", tau_p: int, terms: list, use_sinr2: bool):
    """R1 (R2 with ``use_sinr2``) at pilot length ``tau_p`` for every cell of the row, given as its activation ``terms``.

    ``terms`` is :func:`_activation_terms` of the row's activation
    probabilities. Returns (values, std_errs, n_samples), one entry per
    cell; n_samples is 0 where the cell is exact (a degenerate gain law, or
    a cell that is 0).

    Per gain sample, a cell is the sum over active counts K_a of
    K_a * p(K_a) * prelog * F[K_a], with the F row
    ``F[K_a] = log2(1 + sinr(colliders)) @ p(colliders | K_a)``, which
    depends on neither p_a, K nor tau_u. One :func:`_f_row_sums` call sums
    the rows of all the cells' activation windows, each cell's in ascending
    K_a, so each cell equals, bit for bit, the same cell evaluated alone.
    """
    tau_u, mc = cfg.tau_u, cfg.mc
    prelog = (tau_u - tau_p) / tau_u
    values, errs, ns = np.zeros(len(terms)), np.zeros(len(terms)), np.zeros(len(terms), dtype=int)
    live = [i for i, t in enumerate(terms) if t is not None] if prelog != 0.0 else []
    if not live:
        return values, errs, ns
    cells = [(terms[i][0], terms[i][1] * prelog) for i in live]

    exact = is_degenerate(cfg.model)
    n = 1 if exact else mc.n_beta_samples
    # R2 reads only the reference gain, pool column 0
    k_top = 1 if use_sinr2 else max(k_lo + coeffs.size - 1 for k_lo, coeffs in cells)
    cum, cum_sq = _prefix_sums(cfg.model, n, k_top, cfg.seed)
    moments = analytic_moments(cfg.model) if use_sinr2 else None
    for i, total_s in zip(live, _f_row_sums(cum, cum_sq, cells, tau_p, cfg.M, mc.eps_tail, moments)):
        values[i] = total_s.mean()
        if not exact:
            # a single draw is not analytic, but its error is unknown
            ns[i], errs[i] = n, total_s.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return values, errs, ns


def _analytic_stage(bound: str, cfg: "SystemConfig", tau_ps, p_a) -> np.ndarray:
    """R3 or Ra at every pilot length of ``tau_ps`` and activation probability of the 1-D row ``p_a``.

    Returns a (len(tau_ps), len(p_a)) grid. Cell (i, j) is ``prelog_i *
    p_aK_j * E[log2(1 + sinr(gain; tau_p_i, p_a_j))]``, with the
    expectations of every live cell of the stage taken by one
    :func:`expect_rows` call that writes the bound's SINR (:func:`_sinr3`,
    :func:`_sinra`) into its blocks. Cells with
    p_a*K = 0, and every cell of a row with tau_p = tau_u, are 0.
    """
    tau_ps = np.array(tau_ps, dtype=int)
    p_a = np.asarray(p_a, dtype=float)
    paK = p_a * cfg.K
    prelog = (cfg.tau_u - tau_ps) / cfg.tau_u
    rows, cols = np.nonzero((prelog != 0.0)[:, None] & (paK != 0.0))
    moments = analytic_moments(cfg.model)
    taus, levels = tau_ps[rows, None], (p_a if bound == "R3" else paK)[cols, None]
    sinr, args = (_sinr3, (moments, cfg.K, cfg.M)) if bound == "R3" else (_sinra, (moments, cfg.M))

    def fill(b0, at, out):
        sinr(b0, taus[at], levels[at], *args, out)
        np.log2(np.add(out, 1.0, out=out), out=out)

    values = np.zeros((tau_ps.size, p_a.size))
    if rows.size:
        values[rows, cols] = prelog[rows] * paK[cols] * expect_rows(cfg.model, fill, rows.size)
    return values


def _check_pilot_lengths(cfg: "SystemConfig", tau_ps) -> None:
    """Reject a pilot length of ``tau_ps`` that is not an integer in [1, tau_u]."""
    for tau_p in np.asarray(tau_ps).tolist():
        if not (isinstance(tau_p, int) and not isinstance(tau_p, bool) and 1 <= tau_p <= cfg.tau_u):
            raise ValueError(f"tau_p must be an integer in [1, tau_u={cfg.tau_u}] (got {tau_p!r})")


def _cells(bound: str, cfg: "SystemConfig", tau_ps, p_a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bound ``bound`` at (tau_p, p_a) for every tau_p of ``tau_ps`` and activation probability of the 1-D row ``p_a``.

    Returns (values, std_errs, n_samples), each (len(tau_ps), len(p_a)).
    The one path of every bound evaluation, grid or point: an R3 or Ra
    stage in one pass of :func:`_analytic_stage`, with no Monte Carlo error,
    R1 and R2 a row at a time through :func:`_averaged_row`, every row from
    the same activation windows (:func:`_activation_terms`).
    """
    if bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}; expected one of {tuple(BOUNDS)}")
    _check_pilot_lengths(cfg, tau_ps)
    p_a = np.asarray(p_a, dtype=float)
    shape = (len(tau_ps), p_a.size)
    if bound in ("R3", "Ra"):
        return _analytic_stage(bound, cfg, tau_ps, p_a), np.zeros(shape), np.zeros(shape, dtype=int)
    terms = _activation_terms(cfg, p_a)
    rows = [_averaged_row(cfg, int(tau_p), terms, use_sinr2=bound == "R2") for tau_p in tau_ps]
    return tuple(np.array([row[k] for row in rows]).reshape(shape) for k in range(3))


def _point(bound: str, cfg: "SystemConfig") -> BoundResult:
    """Bound ``bound`` at the config's own operating point: the 1x1 case of :func:`_cells`, at p_a as given."""
    if cfg.tau_p is None or cfg.p_a is None:
        raise ValueError(f"{bound} needs tau_p and p_a set on the config")
    (value,), (err,), (n,) = (part[0] for part in _cells(bound, cfg, [cfg.tau_p], [cfg.p_a]))
    return BoundResult(float(value), mc_samples=int(n), mc_std_err=float(err))


def r1_bar(cfg: "SystemConfig") -> BoundResult:
    """Main averaged sum-rate bound (Monte Carlo over the gain law, ``cfg.mc``)."""
    return _point("R1", cfg)


def r2_bar(cfg: "SystemConfig") -> BoundResult:
    """Secondary averaged bound with collider identities Jensen-averaged."""
    return _point("R2", cfg)


def r3(cfg: "SystemConfig") -> BoundResult:
    """Optimization bound: analytic except for the 1-D gain expectation."""
    return _point("R3", cfg)


def ra(cfg: "SystemConfig") -> BoundResult:
    """Large-system bound used for fast optimization."""
    return _point("Ra", cfg)


# Every bound by id, called as fn(cfg); the analytic ones read no cfg.mc.
BOUNDS = {"R1": r1_bar, "R2": r2_bar, "R3": r3, "Ra": ra}
# The bounds an operating point is optimized on or re-evaluated under.
COSTS = ("R1", "R3", "Ra")


def at_point(cfg: "SystemConfig", tau_p, p_aK: float) -> "SystemConfig":
    """``cfg`` at the operating point (tau_p, p_a*K), with p_a capped at 1."""
    return replace(cfg, tau_p=int(tau_p), p_a=min(p_aK / cfg.K, 1.0))


def bound_at(bound: str, cfg: "SystemConfig", tau_p, p_aK: float) -> BoundResult:
    """Bound ``bound`` at the operating point (tau_p, p_a*K)."""
    if bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}; expected one of {tuple(BOUNDS)}")
    return BOUNDS[bound](at_point(cfg, tau_p, p_aK))


def bound_grid(bound: str, cfg: "SystemConfig", tau_ps, p_aK) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bound ``bound`` at (tau_p, q) for every tau_p of ``tau_ps`` and q of the 1-D row ``p_aK``.

    Returns (values, std_errs, n_samples), each a (len(tau_ps), len(p_aK))
    array whose cells equal the value, mc_std_err and mc_samples of the
    :class:`BoundResult` that :func:`bound_at` returns there: the grid of
    :func:`_cells` at p_a = min(q/K, 1), as in :func:`at_point`.
    """
    return _cells(bound, cfg, tau_ps, np.minimum(np.asarray(p_aK, dtype=float) / cfg.K, 1.0))


# r1_ceiling takes F at block heads from the grid's smallest active count k
# on, each head k + max(1, k // spacing) after the last: a wider spacing takes
# fewer heads, but sits further above the cells and leaves more of them to
# evaluate. R1-opt's stage one takes the ceiling once per spacing of this
# ladder, each pass on the rows and columns the last one could not rule out.
# (K_a, collider count, sample) F-row entries of a whole R1-opt per ladder, at
# ring 0.25, tau_u 120, 500 samples: (16) 26.8M, (4, 16) 16.2M, (2, 16)
# 15.4M, (8, 16) 19.5M, (1, 4, 16) 28.0M; (4, 16) ran at or near the fastest
# of them on all four scenarios tried (2-core Xeon VM, one BLAS thread).
HEAD_SPACINGS = (4, 16)


def r1_ceiling(cfg: "SystemConfig", tau_ps, p_aK, spacing: int) -> np.ndarray:
    """An upper bound on R1 at every cell of ``bound_grid("R1", cfg, tau_ps, p_aK)``.

    Returns a (len(tau_ps), len(p_aK)) array, each cell at least the R1
    value there, up to rounding: per gain sample, each K_a term of a cell
    takes F at its head, the largest block head <= K_a, plus the head's
    truncated collider mass times log2(1 + (M-1) b0) (the lemma of the
    module docstring), with heads ``spacing`` apart (:data:`HEAD_SPACINGS`).
    F at the heads is one :func:`_f_row_sums` call per pilot length, a
    single-K_a cell per head, on the gain pool of the cells, and a cell's
    ceiling is its activation terms summed per head times the heads' sample
    means.
    """
    _check_pilot_lengths(cfg, tau_ps)
    tau_ps = np.asarray(tau_ps, dtype=int)
    terms = _activation_terms(cfg, np.minimum(np.asarray(p_aK, dtype=float) / cfg.K, 1.0))
    ceiling = np.zeros((tau_ps.size, len(terms)))
    live = [t for t in terms if t is not None]
    if not live:
        return ceiling
    heads = [min(k_lo for k_lo, _ in live)]
    k_top = max(k_lo + coeffs.size - 1 for k_lo, coeffs in live)
    while heads[-1] + max(1, heads[-1] // spacing) <= k_top:
        heads.append(heads[-1] + max(1, heads[-1] // spacing))
    heads = np.array(heads)
    # per cell, its activation terms K_a p(K_a) summed over the K_a of each head
    per_head = np.zeros((len(terms), heads.size))
    for j, t in enumerate(terms):
        if t is not None:
            k_lo, coeffs = t
            at = np.searchsorted(heads, np.arange(k_lo, k_lo + coeffs.size), side="right") - 1
            per_head[j] = np.bincount(at, coeffs, minlength=heads.size)

    mc = cfg.mc
    n = 1 if is_degenerate(cfg.model) else mc.n_beta_samples
    cum, cum_sq = _prefix_sums(cfg.model, n, k_top, cfg.seed)
    tail = np.log2(1.0 + (cfg.M - 1) * cum[1]).mean()
    singles = [(int(k), [1.0]) for k in heads]
    for i, tau_p in enumerate(tau_ps.tolist()):
        prelog = (cfg.tau_u - tau_p) / cfg.tau_u
        if prelog != 0.0:
            windows = binom_windows(heads - 1, 1.0 / tau_p, mc.eps_tail)
            f = _f_row_sums(cum, cum_sq, singles, tau_p, cfg.M, mc.eps_tail, None, windows).mean(axis=1)
            ceiling[i] = prelog * (per_head @ (f + (1.0 - windows[2]) * tail))
    return ceiling
