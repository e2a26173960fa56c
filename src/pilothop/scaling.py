"""Closed-form scaling of the optimized sum rate in the array/slot budget.

Three regimes of the unconstrained pilot length are covered:

* antenna-rich (M >> tau_u): half the slot goes to pilots and the rate
  saturates at tau_u / (4 ln 2) bits per symbol.
* slot-rich (M << tau_u): the pilot share shrinks like (M/2)^(2/3) tau_u^(1/3)
  and the rate is pinned by the array size. The regime's own pilot-length
  equation -2*x^(3/2)/sqrt(M) + x + tau_u = 0 has its stationary point at
  (M/4)^(1/3) tau_u^(2/3) to leading order, and numeric ladders land there,
  with a rate near M / ln 2.
* balanced (M ~ tau_u): pilot share a and activation scale b are order-one
  numbers found by maximizing a rate functional that depends on the system
  only through delta = M / tau_u; the rate grows like sqrt(M tau_u). The
  functional's gain expectation is the fixed Gauss rule of ``beta_nodes``
  under every gain law, so the solution is deterministic.

``verify_scaling`` drives the grid optimizer up a ladder of (M, tau_u)
points and pairs each rung's numeric optimum with its prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import sinra
from .channels import LargeScaleModel, analytic_moments, beta_nodes
from .config import SystemConfig
from .optimize import grid_opt

LN2 = math.log(2.0)

# solve_ab's mesh: points per axis and coarse-to-fine stages.
AB_GRID_POINTS = 61
AB_STAGES = 3

# Device population of every verify_scaling rung: high enough that the
# activation cap never binds, since the regimes are statements about p_a*K,
# not about K.
LADDER_K = 10**6


# The regimes predict and verify_scaling take, by name
CASES = ("antenna-rich", "slot-rich", "balanced")


@dataclass(frozen=True)
class ScalingPrediction:
    """Leading-order optimum of one regime."""

    tau_p: float
    p_aK: float
    rate: float
    sinr: float

    def __post_init__(self):
        if min(self.tau_p, self.p_aK, self.rate, self.sinr) <= 0:
            raise ValueError("leading-order predictions must be positive")


def predict(case: str, tau_u: int, M: int, model: LargeScaleModel) -> ScalingPrediction:
    """Leading-order optimal (tau_p, p_a*K, rate, SINR) in the declared regime.

    The antenna- and slot-rich cases read the gain law only through its
    moments; the balanced case solves its functional at delta = M / tau_u
    by a 1-D expectation over the gain law, and its (a, b, rate scale) read
    back as tau_p / tau_u, p_aK / sqrt(M tau_u) and rate / sqrt(M tau_u).
    ``case`` is one of :data:`CASES`.
    """
    if case not in CASES:
        raise ValueError(f"unknown scaling case {case!r}; expected one of {CASES}")
    moments = analytic_moments(model)
    f = moments.spread_factor
    if case == "antenna-rich":
        return ScalingPrediction(
            tau_p=tau_u / 2.0,
            p_aK=math.sqrt(f) * 0.5 * math.sqrt(M * tau_u),
            rate=tau_u / (4.0 * LN2),
            sinr=math.sqrt(tau_u / M),
        )
    if case == "slot-rich":
        tau_p = (M / 2.0) ** (2.0 / 3.0) * tau_u ** (1.0 / 3.0)
        return ScalingPrediction(
            tau_p=tau_p,
            p_aK=math.sqrt(f / 2.0) * math.sqrt(M * tau_p),
            rate=float(M),
            sinr=2.0 ** (1.0 / 3.0) * (M / tau_u) ** (1.0 / 6.0),
        )
    a, b, scale = solve_ab(M / tau_u, model)
    tau_p = a * tau_u
    p_aK = b * math.sqrt(M * tau_u)
    return ScalingPrediction(
        tau_p=tau_p,
        p_aK=p_aK,
        rate=scale * math.sqrt(M * tau_u),
        sinr=float(sinra(moments.mean, moments, tau_p, p_aK, M)),
    )


def ab_objective(a, b, delta: float, model: LargeScaleModel):
    """Normalized balanced-regime rate at pilot share a and activation scale b.

    Multiplying by sqrt(M*tau_u) recovers the sum rate; the functional
    depends on (M, tau_u) only through delta. ``b`` is a 1-D array, and
    the result holds one value per entry. The expectation is taken over the
    memoized Gauss rule of :func:`beta_nodes`.
    """
    betas, w = beta_nodes(model)
    x = sinra(betas, analytic_moments(model), a, b[:, None] * math.sqrt(delta), delta)
    return (1.0 - a) * b * (np.log2(1.0 + x) @ w)


@lru_cache(maxsize=32)
def solve_ab(delta: float, model: LargeScaleModel) -> tuple[float, float, float]:
    """Maximize the balanced-regime functional over (a, b).

    Returns (a, b, rate_scale) with rate_scale the functional's maximum, so
    the predicted optimized sum rate is rate_scale * sqrt(M * tau_u).
    Coarse-to-fine grid of AB_GRID_POINTS per axis: a log-spaced global
    stage over b up to 5 sqrt(spread_factor), then AB_STAGES - 1 zooms
    around the argmax. Memoized per (delta, model): the rungs of a balanced
    ladder share one delta = M / tau_u, so they share one solve.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    root_f = math.sqrt(analytic_moments(model).spread_factor)
    # the slot-rich limit pushes a toward (delta/2)^(2/3); keep it in range
    a_lo = min(1e-3, 0.2 * (delta / 2.0) ** (2.0 / 3.0))
    grid_a = np.geomspace(a_lo, 1.0 - 1e-3, AB_GRID_POINTS)
    grid_b = np.geomspace(1e-3 * root_f, 5.0 * root_f, AB_GRID_POINTS)

    def eval_mesh(avals, bvals):
        best = (-math.inf, None, None)
        for a in avals:
            vals = ab_objective(a, bvals, delta, model)
            j = int(np.argmax(vals))
            if vals[j] > best[0]:
                best = (float(vals[j]), float(a), float(bvals[j]))
        return best

    best = eval_mesh(grid_a, grid_b)
    for _ in range(AB_STAGES - 1):
        _, a_star, b_star = best
        ia = int(np.searchsorted(grid_a, a_star))
        ib = int(np.searchsorted(grid_b, b_star))
        a_win = (grid_a[max(ia - 1, 0)], grid_a[min(ia + 1, grid_a.size - 1)])
        b_win = (grid_b[max(ib - 1, 0)], grid_b[min(ib + 1, grid_b.size - 1)])
        grid_a = np.linspace(a_win[0], a_win[1], AB_GRID_POINTS)
        grid_b = np.linspace(b_win[0], b_win[1], AB_GRID_POINTS)
        cand = eval_mesh(grid_a, grid_b)
        if cand[0] > best[0]:
            best = cand
    val, a_star, b_star = best
    return a_star, b_star, val


@dataclass(frozen=True)
class LadderPoint:
    M: int
    tau_u: int
    tau_p_opt: int
    p_aK_opt: float
    rate: float
    prediction: ScalingPrediction


def verify_scaling(case: str, model: LargeScaleModel, ladder) -> tuple[LadderPoint, ...]:
    """Grid-optimize the large-system bound along a (M, tau_u) ladder and
    pair each rung's optimum with the closed-form prediction.

    Each rung is the scenario (M, tau_u) with LADDER_K devices and gains
    from ``model``, searched on :func:`grid_opt`'s grid. Returns one
    :class:`LadderPoint` per rung, in ladder order. ``case`` is one of
    :data:`CASES`, checked before any rung is searched.
    """
    if case not in CASES:
        raise ValueError(f"unknown scaling case {case!r}; expected one of {CASES}")
    points = []
    for M, tau_u in ladder:
        cfg = SystemConfig(M=int(M), K=LADDER_K, tau_u=int(tau_u), model=model)
        res = grid_opt("Ra", cfg)
        pred = predict(case, int(tau_u), int(M), model)
        points.append(LadderPoint(int(M), int(tau_u), res.tau_p_opt, res.p_aK_opt, res.rate, pred))
    return tuple(points)
