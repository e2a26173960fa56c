"""Joint optimization of the pilot length and the activation probability.

Six methods are provided, from exhaustive to closed-form:

* ``R1-opt`` / ``R3-opt`` / ``Ra-opt`` -- two-stage grid search on the
  corresponding bound. R1 evaluations reuse the same seed at every grid
  point (common random numbers) so argmax comparisons are stable.
* ``Ra-1D``  -- pilot length pinned to a third of the slot, activation
  scale found by golden section on the large-system bound.
* ``Rh0``    -- fully closed form: tau_p = tau_u/3 and an activation level
  set by S0, the root of log(1+x) = 2x/(1+x), pinned as a literal.
* ``Rh-1D``  -- tau_p = tau_u/3 with the activation scale maximizing a
  gain-distribution-aware surrogate; robust when gains vary widely.

The pilot length is an integer number of symbols; the mean active count
p_a*K is continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .bounds import COSTS, HEAD_SPACINGS, BoundResult, bound_at, bound_grid, r1_ceiling, sinra
from .channels import LargeScaleModel, analytic_moments, expect_rows

if TYPE_CHECKING:
    from .config import SystemConfig

METHODS = (*(f"{cost}-opt" for cost in COSTS), "Ra-1D", "Rh0", "Rh-1D")

# The bound whose value each method's rate is; the heuristics' rates are surrogates.
RATE_BOUND = {**{f"{cost}-opt": cost for cost in COSTS}, "Ra-1D": "Ra"}

# heuristic1 (method Rh0) splits the slot in thirds, so it needs this many symbols
RH0_MIN_TAU_U = 3

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Root of log(1+x) = 2x/(1+x), the SINR at which adding devices stops paying:
# brentq on [1, 10] at xtol=1e-14 gives these bits, and a test re-solves it.
S0 = 3.9215536345675077


@dataclass(frozen=True)
class OptimizationResult:
    """A method's operating point.

    ``evaluations`` counts the cost evaluations the method searched: every
    cell of both grid stages for ``-opt``, though ``R1-opt`` evaluates
    exactly only the stage-one cells that :func:`grid_opt` cannot rule out.
    """

    tau_p_opt: int
    p_aK_opt: float
    rate: float
    method: str
    evaluations: int
    bound: BoundResult | None = None  # RATE_BOUND[method] at the point, whose value is rate


def golden_section_max(f: Callable[[float], float], lo: float, hi: float, rel_tol: float):
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evaluations)."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    c = hi - (hi - lo) * _INVPHI
    d = lo + (hi - lo) * _INVPHI
    fc, fd = f(c), f(d)
    evals = 2
    while (hi - lo) > rel_tol * max(abs(lo + hi) / 2.0, 1e-30):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INVPHI
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INVPHI
            fd = f(d)
        evals += 1
    x = (lo + hi) / 2.0
    return x, f(x), evals + 1


# Points of _scan_then_golden's log-spaced scan, and its golden-section tolerance.
SCAN_POINTS = 61
SCAN_REL_TOL = 1e-4

# grid_opt's search: stage one takes TAU_P_POINTS pilot lengths linearly over
# [1, tau_u] and PAK_POINTS values of p_a*K log-spaced over [PAK_MIN, K];
# stage two takes REFINE_POINTS per axis across the stage-one argmax's cell.
TAU_P_POINTS = 25
PAK_POINTS = 25
PAK_MIN = 1.0
REFINE_POINTS = 15

# grid_opt evaluates an R1 cell exactly only when its r1_ceiling reaches the
# best value known, less this share for the rounding of either side
CEILING_REL_TOL = 1e-9


def _scan_then_golden(model, sinr, lo: float, hi: float):
    """Maximize b * E[log2(1 + sinr(gain, b))] over [lo, hi]: a log-spaced scan as one row, then golden section."""
    def obj(bs):
        return bs * expect_rows(model, lambda nodes: np.log2(1.0 + sinr(nodes, bs[:, None])))

    grid = np.geomspace(lo, hi, SCAN_POINTS)
    vals = obj(grid)
    i = int(np.argmax(vals))
    b_lo = grid[max(i - 1, 0)]
    b_hi = grid[min(i + 1, SCAN_POINTS - 1)]
    x, fx, evals = golden_section_max(lambda b: float(obj(np.array([b]))[0]), b_lo, b_hi, SCAN_REL_TOL)
    if vals[i] > fx:
        x, fx = float(grid[i]), float(vals[i])
    return x, fx, evals + SCAN_POINTS


def _pilot_lengths(lo, hi, n: int) -> np.ndarray:
    """The distinct integers nearest ``n`` points spaced evenly over [lo, hi], ascending."""
    return np.array(sorted(set(np.round(np.linspace(lo, hi, n)).astype(int).tolist())), dtype=int)


def _tau_p_third(tau_u: int) -> int:
    return max(1, round(tau_u / 3.0))


def heuristic1(tau_u: int, M: int) -> tuple[int, float]:
    """Closed-form operating point: a third of the slot on pilots, sqrt(M*tau_u) scaling."""
    if tau_u < RH0_MIN_TAU_U:
        raise ValueError(f"slot length must be at least {RH0_MIN_TAU_U} symbols")
    return _tau_p_third(tau_u), math.sqrt(tau_u * M / (3.0 * S0))


def rh0_cost(tau_p: int, p_aK: float, tau_u: int, M: int) -> float:
    """Interference-dominated surrogate rate behind heuristic1."""
    return p_aK * (tau_u - tau_p) / tau_u * math.log2(1.0 + M * tau_p / p_aK**2)


def heuristic2_1d(tau_u: int, M: int, model: LargeScaleModel):
    """tau_p = tau_u/3 with a gain-distribution-aware activation scale.

    Returns (tau_p, p_aK, surrogate value, evaluations). The scale maximizer
    b = p_aK / sqrt(M*tau_u) does not depend on M or tau_u, only on the gain law.
    """
    mean = analytic_moments(model).mean
    b_opt, val, evals = _scan_then_golden(
        model, lambda nodes, b: nodes**2 / (3.0 * mean * b * b), 1e-2, 1e2)
    return _tau_p_third(tau_u), b_opt * math.sqrt(tau_u * M), val, evals


def asymptotic_1d(tau_u: int, M: int, model: LargeScaleModel):
    """tau_p = tau_u/3, activation scale maximizing the large-system bound.

    Returns (tau_p, p_aK, value, evaluations); the value is the objective
    b * E[log2(1 + sinra)] at b = p_aK / sqrt(M*tau_u), without the prelog.
    """
    m = analytic_moments(model)
    root = math.sqrt(M * tau_u)
    b_opt, val, evals = _scan_then_golden(
        model, lambda nodes, b: sinra(nodes, m, tau_u / 3.0, b * root, M), 1e-3, 1e2)
    return _tau_p_third(tau_u), b_opt * root, val, evals


def _r1_stage(cfg: "SystemConfig", tps, qs):
    """R1 at the cells of the stage ``tps`` x ``qs`` that can reach its maximum, as :func:`bound_grid` returns them.

    The top cell of :func:`r1_ceiling` at the first spacing of
    :data:`HEAD_SPACINGS` is evaluated first. A cell is ruled out once a
    ceiling of it falls below that value, less :data:`CEILING_REL_TOL`; each
    later spacing takes the ceiling only on the rows x columns that hold a
    cell still in. The cells left are evaluated a row at a time. Every cell
    that can reach the maximum holds its :func:`bound_grid` value, bit for
    bit; the others read -inf.
    """
    ceiling = r1_ceiling(cfg, tps, qs, HEAD_SPACINGS[0])
    values, errs, ns = np.full(ceiling.shape, -math.inf), np.zeros(ceiling.shape), np.zeros(ceiling.shape, dtype=int)
    i, j = np.unravel_index(int(np.argmax(ceiling)), ceiling.shape)
    values[i, j], errs[i, j], ns[i, j] = (part[0, 0] for part in bound_grid("R1", cfg, tps[i:i + 1], qs[j:j + 1]))
    floor = values[i, j] * (1.0 - CEILING_REL_TOL)
    keep = ceiling >= floor
    keep[i, j] = False
    for spacing in HEAD_SPACINGS[1:]:
        rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
        if rows.size:
            keep[np.ix_(rows, cols)] &= r1_ceiling(cfg, tps[rows], qs[cols], spacing) >= floor
    for r in np.flatnonzero(keep.any(axis=1)):
        cols = keep[r]
        values[r, cols], errs[r, cols], ns[r, cols] = (part[0] for part in bound_grid("R1", cfg, tps[r:r + 1], qs[cols]))
    return values, errs, ns


def grid_opt(cost: str, cfg: "SystemConfig") -> OptimizationResult:
    """Two-stage grid search of ``cost`` over (tau_p, p_a*K) for the scenario ``cfg``.

    Stage one scans tau_p linearly over [1, tau_u] and p_a*K log-spaced over
    [PAK_MIN, K]; stage two refines one stage-one cell around the argmax.
    Every cell of both stages is searched, and ``evaluations`` counts them
    all. Stage two is evaluated whole, and so is stage one of R3 or Ra; an
    R1 stage one exactly only at the cells whose certified ceilings
    (:func:`_r1_stage`) reach its best value, so the others cannot win. The
    first strict maximum in row-major order wins. ``rate`` is the best
    cell's value and ``bound`` its :class:`BoundResult`, which equals
    ``bound_at(cost, ...)`` at the returned point, Monte Carlo error included.
    """
    if cost not in COSTS:
        raise ValueError(f"unknown cost {cost!r}; expected one of {COSTS}")
    tau_u, K = cfg.tau_u, cfg.K
    tps = _pilot_lengths(1, tau_u, TAU_P_POINTS)
    qs = np.geomspace(min(PAK_MIN, float(K)), K, PAK_POINTS)

    evals = 0
    best = (-math.inf, None, None, None)

    def sweep(tp_list, q_list, stage):
        nonlocal evals, best
        evals += tp_list.size * q_list.size
        values, errs, ns = (part.reshape(-1) for part in stage)
        k = int(np.argmax(values))  # the first maximum in row-major order
        if values[k] > best[0]:
            best = (float(values[k]), int(tp_list[k // q_list.size]), float(q_list[k % q_list.size]),
                    BoundResult(float(values[k]), int(ns[k]), float(errs[k])))

    sweep(tps, qs, _r1_stage(cfg, tps, qs) if cost == "R1" else bound_grid(cost, cfg, tps, qs))

    i = int(np.searchsorted(tps, best[1]))
    tp_lo, tp_hi = tps[max(i - 1, 0)], tps[min(i + 1, tps.size - 1)]
    tps2 = _pilot_lengths(tp_lo, tp_hi, REFINE_POINTS)
    j = int(np.searchsorted(qs, best[2]))
    ratio = qs[min(j + 1, qs.size - 1)] / qs[j]
    # refinement stays inside stage one's span (R3 needs p_a*K >= 1)
    q_lo2 = max(best[2] / ratio, float(qs[0]))
    q_hi2 = min(best[2] * ratio, float(K))
    qs2 = np.geomspace(q_lo2, q_hi2, REFINE_POINTS) if q_hi2 > q_lo2 else np.array([best[2]])
    sweep(tps2, qs2, bound_grid(cost, cfg, tps2, qs2))

    rate, tau_p_opt, q_opt, at = best
    return OptimizationResult(tau_p_opt, q_opt, rate, f"{cost}-opt", evals, at)


def optimize(method: str, cfg: "SystemConfig") -> OptimizationResult:
    """Run one of the six named methods on the scenario ``cfg`` and return its operating point.

    The three ``-opt`` methods search the grid of :func:`grid_opt`.
    ``rate`` is the method's own cost at the returned point: the best grid
    cell's value for ``-opt``, the Ra bound for ``Ra-1D`` (for both, ``bound``
    holds that bound's :class:`BoundResult`) and a surrogate, not an
    achievable rate, for the closed-form heuristics.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    cost = method.removesuffix("-opt")
    if cost in COSTS:
        return grid_opt(cost, cfg)

    tau_u, M, K, model = cfg.tau_u, cfg.M, cfg.K, cfg.model
    if method == "Rh0":
        tau_p, p_aK = heuristic1(tau_u, M)
        p_aK = min(p_aK, float(K))
        return OptimizationResult(tau_p, p_aK, rh0_cost(tau_p, p_aK, tau_u, M), "Rh0", 0)
    if method == "Rh-1D":
        tau_p, p_aK, val, evals = heuristic2_1d(tau_u, M, model)
        return OptimizationResult(tau_p, min(p_aK, float(K)), val, "Rh-1D", evals)
    tau_p, p_aK, _, evals = asymptotic_1d(tau_u, M, model)
    p_aK = min(p_aK, float(K))
    achieved = bound_at("Ra", cfg, tau_p, p_aK)
    return OptimizationResult(tau_p, p_aK, achieved.value, "Ra-1D", evals + 1, achieved)
