import math
from pathlib import Path

import numpy as np
import pytest

from pilothop.bounds import sinra
from pilothop.channels import LogNormalShadowing, UniformPowerError, RingPathLoss, analytic_moments, beta_nodes
from pilothop import scaling
from pilothop.config import parse_model, parse_spec
from pilothop.scaling import (
    AB_GRID_POINTS,
    AB_STAGES,
    ScalingPrediction,
    ab_objective,
    predict,
    solve_ab,
    verify_scaling,
)


@pytest.fixture(scope="module")
def pc_model():
    return UniformPowerError(10.0, 0.0)


def test_predict_antenna_rich_values(pc_model):
    p = predict("antenna-rich", 100, 100000, pc_model)
    assert p.tau_p == pytest.approx(50.0)
    assert p.p_aK == pytest.approx(0.5 * math.sqrt(100 * 100000), rel=1e-12)
    assert p.rate == pytest.approx(100 / (4 * math.log(2)), rel=1e-12)
    assert p.rate == pytest.approx(36.07, abs=0.01)
    assert p.sinr == pytest.approx(math.sqrt(100 / 100000), rel=1e-12)


def test_predict_slot_rich_values(pc_model):
    p = predict("slot-rich", 10**5, 100, pc_model)
    assert p.tau_p == pytest.approx(50 ** (2 / 3) * (10**5) ** (1 / 3), rel=1e-12)
    assert p.rate == 100.0
    assert p.sinr == pytest.approx(2 ** (1 / 3) * (100 / 10**5) ** (1 / 6), rel=1e-12)


def test_prediction_validation():
    with pytest.raises(ValueError):
        ScalingPrediction(tau_p=0.0, p_aK=1.0, rate=1.0, sinr=1.0)


def test_solve_ab_beats_brute_force(pc_model):
    a, b, val = solve_ab(1.0, pc_model)
    avals = np.linspace(0.005, 0.995, 200)
    bvals = np.geomspace(0.005, 5.0, 200)
    brute = max(ab_objective(ai, bvals, 1.0, pc_model).max() for ai in avals)
    assert val >= brute - 1e-6
    assert val == pytest.approx(ab_objective(a, np.array([b]), 1.0, pc_model)[0], rel=1e-12)


def test_solve_ab_depends_only_on_ratio(pc_model):
    p1 = predict("balanced", 300, 100, pc_model)
    solve_ab.cache_clear()  # solve again: both points have the same delta
    p2 = predict("balanced", 3000, 1000, pc_model)
    # a = tau_p / tau_u and b = p_aK / sqrt(M tau_u)
    assert abs(p1.tau_p / 300 - p2.tau_p / 3000) <= 1e-8
    assert abs(p1.p_aK / math.sqrt(100 * 300) - p2.p_aK / math.sqrt(1000 * 3000)) <= 1e-8


def test_balanced_ladder_solves_its_functional_once(monkeypatch):
    # the rungs of a balanced ladder share delta = M / tau_u, so one solve serves them all
    deltas, objective = [], scaling.ab_objective

    def counted(a, b, delta, model):
        deltas.append(delta)
        return objective(a, b, delta, model)

    monkeypatch.setattr(scaling, "ab_objective", counted)
    solve_ab.cache_clear()
    model = UniformPowerError(10.0, 0.5)
    points = verify_scaling("balanced", model, [(100, 100), (400, 400), (1600, 1600)])
    assert len(points) == 3 and len(deltas) == AB_STAGES * AB_GRID_POINTS and set(deltas) == {1.0}


def test_solve_ab_saturates_to_half(pc_model):
    deltas = [0.1, 1.0, 10.0, 100.0]
    pts = [solve_ab(d, pc_model)[:2] for d in deltas]
    for a, b in pts:
        assert 0.0 < a < 1.5 and 0.0 < b < 1.5
    da = [abs(a - 0.5) for a, _ in pts]
    db = [abs(b - 0.5) for _, b in pts]
    assert all(x > y for x, y in zip(da, da[1:]))
    assert all(x > y for x, y in zip(db, db[1:]))


def test_solve_ab_small_delta_exponent(pc_model):
    # the stationarity condition of the slot-rich limit puts the pilot
    # share at ~(delta/4)^(1/3); the measured exponent must sit near 1/3
    a1, _, _ = solve_ab(1e-2, pc_model)
    a2, _, _ = solve_ab(1e-4, pc_model)
    slope = math.log(a1 / a2) / math.log(1e-2 / 1e-4)
    assert 0.28 <= slope <= 0.40


def test_ab_objective_vanishes_at_full_pilot_share(pc_model):
    # the training prelog (1 - a) kills the functional as the pilot share reaches the slot
    vals = ab_objective(1.0 - 1e-12, np.array([0.05, 0.5, 2.0]), 1.0, pc_model)
    assert vals == pytest.approx(0.0, abs=1e-9)


def test_ab_objective_takes_a_row_of_activation_scales():
    # one call over a 1-D b is the (b x nodes) mesh row solve_ab has always maximized, bit for bit
    bs = np.geomspace(1e-3, 5.0, 61)
    models = (UniformPowerError(10.0, 0.5), RingPathLoss(10.0, 0.25), LogNormalShadowing(10.0, 4.0))
    for model in models:
        betas, w = beta_nodes(model)
        m = analytic_moments(model)
        for delta in (0.01, 1.0, 10.0):
            for a in (0.01, 0.5, 0.9):
                row = ab_objective(a, bs, delta, model)
                mesh = sinra(betas, m, a, bs[:, None] * math.sqrt(delta), delta)
                assert np.array_equal(row, (1.0 - a) * bs * (np.log2(1.0 + mesh) @ w))


def _rel(measured, predicted):
    return abs(measured - predicted) / predicted


def test_verify_scaling_antenna_rich_short(pc_model):
    points = verify_scaling("antenna-rich", pc_model, [(10**3, 100), (10**4, 100)])
    errs = [_rel(pt.tau_p_opt, pt.prediction.tau_p) for pt in points]
    assert errs[1] <= errs[0]
    assert _rel(points[-1].rate, points[-1].prediction.rate) < 0.15


def test_verify_scaling_balanced_rate_scale(pc_model):
    points = verify_scaling("balanced", pc_model, [(100, 100), (400, 400)])
    for pt in points:
        root = math.sqrt(pt.M * pt.tau_u)
        assert pt.rate / root == pytest.approx(pt.prediction.rate / root, rel=0.10)


def test_verify_scaling_slot_rich_normalization(pc_model):
    points = verify_scaling("slot-rich", pc_model, [(100, 10**4), (100, 10**6)])
    # the numeric rate approaches M / ln 2 rather than the leading-order M
    last = points[-1]
    assert _rel(last.rate, last.M / math.log(2)) < _rel(last.rate, last.prediction.rate)
    alt = [_rel(pt.rate, pt.M / math.log(2)) for pt in points]
    assert alt[1] < alt[0]
    # the stationary point (M/4)^(1/3) tau_u^(2/3) tracks the measured pilot length within a factor
    for pt in points:
        assert 0.5 <= pt.tau_p_opt / ((pt.M / 4) ** (1 / 3) * pt.tau_u ** (2 / 3)) <= 2.0


def test_verify_scaling_rejects_constrained_case(pc_model, monkeypatch):
    # an unknown case is refused before any rung is searched
    monkeypatch.setattr(scaling, "grid_opt", lambda *args: pytest.fail("searched a rung"))
    with pytest.raises(ValueError, match="coherence-limited"):
        verify_scaling("coherence-limited", pc_model, [(100, 100)])
    with pytest.raises(ValueError, match="coherence-limited"):
        predict("coherence-limited", 100, 100, pc_model)
    assert scaling.CASES == ("antenna-rich", "slot-rich", "balanced")


def test_spread_factor_enters_predictions():
    ring = RingPathLoss(10.0, 0.25)
    p = predict("antenna-rich", 100, 100000, ring)
    f = analytic_moments(ring).spread_factor
    assert p.p_aK == pytest.approx(math.sqrt(f) * 0.5 * math.sqrt(100 * 100000), rel=1e-12)
    assert f > 1.0


_SHIPPED = parse_spec(Path(__file__).resolve().parent.parent / "specs" / "scaling_antenna_rich.yaml")


@pytest.mark.parametrize("case, model, ladder", [
    (_SHIPPED.case, parse_model(_SHIPPED.system["model"]), _SHIPPED.ladder),
    # the ladders of the tests above
    ("antenna-rich", UniformPowerError(10.0, 0.0), [(10**3, 100), (10**4, 100)]),
    ("balanced", UniformPowerError(10.0, 0.0), [(100, 100), (400, 400)]),
    ("slot-rich", UniformPowerError(10.0, 0.0), [(100, 10**4), (100, 10**6)]),
    ("balanced", UniformPowerError(10.0, 0.5), [(100, 100), (400, 400), (1600, 1600)]),
], ids=["shipped", "antenna-rich", "balanced", "slot-rich", "balanced-spread"])
def test_the_activation_cap_never_binds_on_a_ladder_rung(case, model, ladder):
    # LADDER_K's claim: every rung's optimum has p_a < 1, so the regimes speak of p_aK, not of K
    points = verify_scaling(case, model, ladder)
    assert len(points) == len(ladder) and all(pt.p_aK_opt < scaling.LADDER_K for pt in points), points
