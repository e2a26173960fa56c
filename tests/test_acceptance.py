"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Everything is deterministic for the seeds baked in here.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pilothop.access import binom_pmf
from pilothop.bounds import (
    McConfig,
    estimation_variances,
    r1_bar,
    r2_bar,
    r3,
    sinr1,
)
from pilothop.channels import RingPathLoss, LogNormalShadowing, UniformPowerError
from pilothop.cli import main as cli_main
from pilothop.config import SystemConfig
from pilothop.experiments import point_seed
from pilothop.optimize import S0, grid_opt, heuristic1, optimize
from pilothop.scaling import predict, solve_ab, verify_scaling
from reference import sinr_components


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_s0_root():
    t0 = time.perf_counter()
    s0 = S0
    residual = abs(math.log1p(s0) - 2 * s0 / (1 + s0))
    elapsed = time.perf_counter() - t0
    ok = residual < 1e-10 and 3.91 <= s0 <= 3.93 and elapsed < 1.0
    _report(1, "s0 root", ok, f"s0={s0:.6f}, residual={residual:.2e}, {elapsed:.3f}s")


def test_criterion_02_heuristic_operating_point():
    t0 = time.perf_counter()
    tau_p, p_aK = heuristic1(100, 100)
    want = math.sqrt(1e4 / (3 * S0))
    elapsed = time.perf_counter() - t0
    ok = tau_p == 33 and abs(p_aK - want) < 1e-12 and abs(p_aK - 29.2) <= 0.1 and elapsed < 1.0
    _report(2, "closed-form heuristic at M=tau_u=100", ok,
            f"tau_p={tau_p}, p_aK={p_aK:.4f}, {elapsed:.3f}s")


def test_criterion_03_variance_decomposition_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10**4):
        c = int(rng.integers(0, 6))
        extra = int(rng.integers(0, 8))
        betas = np.exp(rng.normal(1.0, 1.2, size=1 + c + extra))
        s = (float(betas[0]), betas[1 : 1 + c], betas[1 + c :], int(rng.integers(1, 64)), int(rng.integers(2, 512)))
        direct = sinr1(*s)
        recon = 1.0 / sinr_components(*s).inverse_sinr
        worst = max(worst, abs(direct - recon) / direct)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(3, "closed form vs variance-decomposition oracle", ok,
            f"worst rel dev={worst:.2e} over 1e4 scenarios, {elapsed:.1f}s")


def test_criterion_04_bound_ordering_grid():
    t0 = time.perf_counter()
    violations = []
    for alpha in (0.0, 0.5):
        model = UniformPowerError(10.0, alpha)
        for tp in (5, 20, 33, 60, 90):
            for q in (2.0, 8.0, 30.0, 120.0, 500.0):
                cfg = SystemConfig(M=100, K=800, tau_u=100, tau_p=tp, p_a=q / 800, model=model, seed=9)
                v1 = r1_bar(cfg)
                v2 = r2_bar(cfg)
                v3 = r3(cfg)
                slack12 = 3 * math.hypot(v1.mc_std_err, v2.mc_std_err) + 1e-9 * max(1.0, v1.value)
                slack13 = 3 * v1.mc_std_err + 1e-9 * max(1.0, v1.value)
                if v2.value > v1.value + slack12 or v3.value > v1.value + slack13:
                    violations.append((alpha, tp, q))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 600.0
    _report(4, "bound ordering on the 5x5 grid", ok,
            f"{len(violations)} violations over 50 points, {elapsed:.1f}s")


def test_criterion_05_antenna_rich_scaling():
    t0 = time.perf_counter()
    model = UniformPowerError(10.0, 0.0)
    points = verify_scaling("antenna-rich", model, [(10**3, 100), (10**4, 100), (10**5, 100)])
    tau_errs = [abs(pt.tau_p_opt - pt.prediction.tau_p) / pt.prediction.tau_p for pt in points]
    rate_errs = [abs(pt.rate - pt.prediction.rate) / pt.prediction.rate for pt in points]
    final = points[-1]
    elapsed = time.perf_counter() - t0
    ok = (
        all(a >= b for a, b in zip(tau_errs, tau_errs[1:]))
        and all(a >= b for a, b in zip(rate_errs, rate_errs[1:]))
        and tau_errs[-1] < 0.10
        and rate_errs[-1] < 0.15
        and elapsed < 300.0
    )
    _report(5, "antenna-rich scaling ladder", ok,
            f"tau_p errs={['%.3f' % e for e in tau_errs]}, rate errs={['%.3f' % e for e in rate_errs]}, "
            f"final rate={final.rate:.2f} vs {final.prediction.rate:.2f}, {elapsed:.1f}s")


def test_criterion_06_balanced_regime_solution():
    t0 = time.perf_counter()
    model = UniformPowerError(10.0, 0.0)
    pts = [solve_ab(d, model)[:2] for d in (0.1, 1.0, 10.0, 100.0)]
    in_range = all(0.0 < a < 1.5 and 0.0 < b < 1.5 for a, b in pts)
    da = [abs(a - 0.5) for a, _ in pts]
    db = [abs(b - 0.5) for _, b in pts]
    monotone = all(x > y for x, y in zip(da, da[1:])) and all(x > y for x, y in zip(db, db[1:]))
    p1 = predict("balanced", 200, 100, model)
    p2 = predict("balanced", 2000, 1000, model)
    # a = tau_p / tau_u and b = p_aK / sqrt(M tau_u) depend on M / tau_u only
    invariant = (abs(p1.tau_p / 200 - p2.tau_p / 2000) <= 1e-8
                 and abs(p1.p_aK / math.sqrt(100 * 200) - p2.p_aK / math.sqrt(1000 * 2000)) <= 1e-8)
    elapsed = time.perf_counter() - t0
    ok = in_range and monotone and invariant and elapsed < 120.0
    _report(6, "balanced-regime pilot/activation shares", ok,
            f"(a,b) over delta: {[(round(a,3), round(b,3)) for a, b in pts]}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def fig6_sweep():
    model = RingPathLoss(10.0, 0.25)
    methods = ("R1-opt", "Ra-opt", "Rh0", "Rh-1D")
    # optimizations run at the stated desk-scale 500 samples/cell; the final
    # achieved-rate comparison re-evaluates the operating points precisely
    # (common random numbers) so the 8% check measures the methods, not the
    # search noise
    precise = McConfig(n_beta_samples=50000)
    t0 = time.perf_counter()
    rows = {}
    for i, tau_u in enumerate((60, 120, 180, 240, 300)):
        seed = point_seed(2024, i)
        cfg = SystemConfig(M=100, K=800, tau_u=tau_u, model=model, seed=seed,
                           mc=McConfig(n_beta_samples=500))
        per = {}
        for m in methods:
            res = optimize(m, cfg)
            ach = r1_bar(replace(cfg, tau_p=res.tau_p_opt, p_a=min(res.p_aK_opt / 800, 1.0), seed=777,
                                 mc=precise))
            per[m] = (res.tau_p_opt, res.p_aK_opt, ach.value, ach.mc_std_err)
        rows[tau_u] = per
    return rows, time.perf_counter() - t0


def test_criterion_07_method_consistency(fig6_sweep):
    rows, elapsed = fig6_sweep
    ratios, tau_ratios = [], []
    for tau_u, per in rows.items():
        _, _, r1, e1 = per["R1-opt"]
        _, _, ra_val, ea = per["Ra-opt"]
        ratio = ra_val / r1
        sigma = ratio * math.hypot(e1 / r1, ea / ra_val)
        ratios.append((tau_u, ratio, sigma))
        for m, (tp, _, _, _) in per.items():
            tau_ratios.append((tau_u, m, tp / tau_u))
    # 8% tolerance with the comparison's own Monte Carlo 3-sigma, as in the
    # other bound-comparison criteria
    ok_rate = all(r >= 0.92 - 3 * s for _, r, s in ratios)
    ok_tau = all(0.2 <= x <= 0.55 for _, _, x in tau_ratios)
    ok = ok_rate and ok_tau and elapsed < 1800.0
    _report(7, "optimization-method consistency sweep", ok,
            f"Ra/R1 achieved ratios={[(t, round(r, 4)) for t, r, _ in ratios]}, "
            f"tau_p/tau_u in [{min(x for *_, x in tau_ratios):.3f}, {max(x for *_, x in tau_ratios):.3f}], "
            f"{elapsed:.0f}s")


def test_criterion_08_protocol_vs_bound(replayed):
    t0 = time.perf_counter()
    cfg = SystemConfig(M=100, K=800, tau_u=100, model=UniformPowerError(10.0, 0.0), seed=5)
    res = grid_opt("Ra", cfg)
    at = replace(cfg, tau_p=res.tau_p_opt, p_a=res.p_aK_opt / cfg.K)
    bound = r1_bar(at)

    fr, slots = replayed(at, 2000, 99)
    prelog = (at.tau_u - at.tau_p) / at.tau_u
    slot_totals = np.array([prelog * np.log2(1.0 + out.device_sinr).sum() for out in slots])
    se_slots = slot_totals.std(ddof=1) / math.sqrt(slot_totals.size)

    # frame-level spread: one frame pins one activation draw, so the bound
    # comparison carries the analytic spread of the sum rate across K_a
    from pilothop.access import ActivationLaw, truncate_support

    law = ActivationLaw(at.K, at.p_a)
    sup = truncate_support(law, 1e-9)
    ks = np.arange(max(sup.lo, 1), sup.hi + 1)
    cond = np.array([r1_bar(replace(at, K=int(k), p_a=1.0)).value for k in ks])
    w = binom_pmf(ks, at.K, at.p_a)
    var_ka = float(w @ (cond - float(w @ cond)) ** 2)
    sigma = math.sqrt(se_slots**2 + var_ka + bound.mc_std_err**2)
    # the frame also against R1 at its own active count: R1(K_a) falls
    # steeply below the mean K_a, so sigma alone understates how low a
    # correct frame with a small draw can read
    k_a = fr.active.size
    bound_ka = float(cond[ks == k_a][0]) if k_a in ks else math.nan

    elapsed = time.perf_counter() - t0
    ok = (fr.sum_rate >= bound.value - 3 * sigma) and (fr.sum_rate <= 1.5 * bound.value) and elapsed < 600.0
    ok = ok and fr.sum_rate >= bound_ka - 3 * se_slots
    _report(8, "slot-level protocol vs main bound", ok,
            f"empirical={fr.sum_rate:.3f}, bound={bound.value:.3f}, sigma={sigma:.3f}, "
            f"K_a={k_a}, R1(K_a)={bound_ka:.3f}, se_slots={se_slots:.3f}, {elapsed:.0f}s")


def test_criterion_08_per_ka_limit_at_several_seeds(replayed):
    # criterion 8's per-K_a lower limit, R1(K_a) - 3 se_slots, on one frame
    # of 500 slots for each of the frame seeds 1-5; every margin is reported
    t0 = time.perf_counter()
    cfg = SystemConfig(M=100, K=800, tau_u=100, model=UniformPowerError(10.0, 0.0), seed=5)
    res = grid_opt("Ra", cfg)
    at = replace(cfg, tau_p=res.tau_p_opt, p_a=res.p_aK_opt / cfg.K)
    prelog = (at.tau_u - at.tau_p) / at.tau_u
    margins = []
    for seed in range(1, 6):
        fr, slots = replayed(at, 500, seed, frame_index=seed)
        slot_totals = np.array([prelog * np.log2(1.0 + out.device_sinr).sum() for out in slots])
        se_slots = slot_totals.std(ddof=1) / math.sqrt(slot_totals.size)
        bound_ka = r1_bar(replace(at, K=int(fr.active.size), p_a=1.0)).value
        margins.append((seed, int(fr.active.size), fr.sum_rate - (bound_ka - 3 * se_slots)))
    elapsed = time.perf_counter() - t0
    ok = all(m >= 0 for *_, m in margins)
    _report(8, "per-K_a lower limit at frame seeds 1-5", ok,
            ", ".join(f"seed {s}: K_a={k}, margin={m:.3f}" for s, k, m in margins) + f", {elapsed:.0f}s")


def test_criterion_09_estimation_layer_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    M, tau_p, n = 8, 16, 10**5
    b0, coll = 9.0, np.array([4.0, 2.5])
    S = b0 + coll.sum()
    g0 = (rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))) * math.sqrt(b0 / 2)
    gs = sum((rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))) * math.sqrt(b / 2)
             for b in coll)
    noise = (rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))) / math.sqrt(2)
    y = math.sqrt(tau_p) * (g0 + gs) + noise
    ghat = (math.sqrt(tau_p) * b0 / (tau_p * S + 1.0)) * y
    eps = ghat - g0

    est_v, err_v = estimation_variances(b0, coll, tau_p)
    emp_est = float((np.abs(ghat) ** 2).mean())
    emp_err = float((np.abs(eps) ** 2).mean())
    rel_est = abs(emp_est - est_v) / est_v
    rel_err = abs(emp_err - err_v) / err_v

    cross = ghat.T @ eps.conj() / n  # E[ghat eps^H], M x M
    se = math.sqrt(est_v * err_v / n)
    worst_z = float(np.abs(cross).max() / se)

    elapsed = time.perf_counter() - t0
    ok = rel_est < 0.02 and rel_err < 0.02 and worst_z <= 3.0 and elapsed < 120.0
    _report(9, "genie estimation statistics", ok,
            f"var devs=({rel_est:.4f}, {rel_err:.4f}), worst orthogonality z={worst_z:.2f}, {elapsed:.0f}s")


def test_criterion_10_collision_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    K_a, tau_p, n = 41, 20, 10**6
    picks = rng.integers(0, tau_p, size=(n, K_a), dtype=np.int8)
    colliders = (picks[:, 1:] == picks[:, :1]).sum(axis=1)
    hist = np.bincount(colliders, minlength=K_a) / n
    pm = binom_pmf(np.arange(K_a), K_a - 1, 1 / tau_p)
    tv = 0.5 * float(np.abs(hist - pm).sum())
    mean_c = float(colliders.mean())
    elapsed = time.perf_counter() - t0
    ok = tv < 0.01 and abs(mean_c - 2.0) <= 0.01 and elapsed < 60.0
    _report(10, "simulated collision statistics", ok,
            f"TV={tv:.5f}, E[c]={mean_c:.4f}, {elapsed:.1f}s")


def test_criterion_11_rate_saturation_in_population():
    t0 = time.perf_counter()
    model = LogNormalShadowing(10.0, 0.25)
    values = []
    for K in (200, 400, 800, 1600):
        cfg = SystemConfig(M=100, K=K, tau_u=100, tau_p=33, p_a=30 / K, model=model, seed=3,
                           mc=McConfig(n_beta_samples=4000))
        values.append(r1_bar(cfg).value)
    inc = np.abs(np.diff(values))
    elapsed = time.perf_counter() - t0
    ok = inc[0] > inc[1] > inc[2] and inc[-1] < 0.02 * values[-1] and elapsed < 900.0
    _report(11, "main-bound saturation in the population", ok,
            f"rates={['%.4f' % v for v in values]}, increments={['%.4f' % d for d in inc]}, {elapsed:.0f}s")


def test_criterion_12_byte_identical_csv(tmp_path):
    t0 = time.perf_counter()
    spec = tmp_path / "det.yaml"
    spec.write_text(
        "kind: sweep\n"
        "system: {M: 100, K: 800, tau_u: 100, seed: 7,\n"
        "  model: {type: pathloss, alpha: 0.25}, mc: {n_beta_samples: 300}}\n"
        "methods: [Ra-opt, Rh0, Rh-1D]\n"
        "sweep: {axis: tau_u, values: [60, 100]}\n"
        "evaluate_with: R1\nout_prefix: det\n"
    )
    outs = {}
    for label, jobs in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / label
        assert cli_main(["run", str(spec), "--out", str(out), "--jobs", jobs]) == 0
        outs[label] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
    same = outs["a"] == outs["b"] == outs["c"] and list(outs["a"]) == ["det_rate.csv"]
    elapsed = time.perf_counter() - t0
    _report(12, "byte-identical CSV under reruns and parallelism", same and elapsed < 600.0,
            f"{len(outs['a'])} files compared across 3 runs, {elapsed:.0f}s")
