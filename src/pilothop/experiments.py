"""Experiment drivers: map a validated spec to CSV-ready records.

Every emitted CSV shares one schema (sweep_value, method, rate, tau_p_opt,
p_aK_opt, mc_std_err) with floats printed to 9 significant digits. Sweep
points get independent seeds derived from the root seed and the point
index, and are evaluated independently, so output bytes do not depend on
the parallelism degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it at import, not inside a run

from .bounds import BOUNDS, at_point, bound_at
from .config import SYSTEM_UNREAD, ExperimentSpec, SystemConfig, build_system, parse_model
from .optimize import RATE_BOUND, optimize
from .protocol import run_frame
from .scaling import verify_scaling

CSV_HEADER = "sweep_value,method,rate,tau_p_opt,p_aK_opt,mc_std_err"


@dataclass(frozen=True)
class Record:
    sweep_value: float
    method: str
    rate: float
    tau_p_opt: float
    p_aK_opt: float
    mc_std_err: float


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) or (isinstance(x, float) and x.is_integer() and abs(x) < 1e15):
        return str(int(x))
    return f"{x:.9g}"


def format_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            _fmt(r.sweep_value), r.method, f"{r.rate:.9g}",
            _fmt(r.tau_p_opt), f"{r.p_aK_opt:.9g}", f"{r.mc_std_err:.9g}",
        ]))
    return "\n".join(lines) + "\n"


def point_seed(root: int, index: int) -> int:
    """Stable per-point seed derived from the root seed and the point index."""
    return int(np.random.SeedSequence((int(root), int(index))).generate_state(1)[0])


def _methods_at_point(cfg: SystemConfig, methods, evaluate_with: str, sweep_value) -> list[Record]:
    records = []
    for m in methods:
        res = optimize(m, cfg)
        if RATE_BOUND.get(m) == evaluate_with:
            b = res.bound  # the optimizer took this bound at its point already
        else:
            b = bound_at(evaluate_with, cfg, res.tau_p_opt, res.p_aK_opt)
        records.append(Record(sweep_value, m, b.value, res.tau_p_opt, res.p_aK_opt, b.mc_std_err))
    return records


def _sweep_point(args) -> list[Record]:
    cfg, methods, axis, evaluate_with = args
    return _methods_at_point(cfg, methods, evaluate_with, getattr(cfg, axis))


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), 104729, int(frame_index))))


def _simulate(cfg: SystemConfig, n_slots: int, n_frames: int, label: str, sweep_value) -> list[Record]:
    rates = []
    records = []
    p_aK = cfg.p_a * cfg.K
    for i in range(n_frames):
        fr = run_frame(cfg, n_slots, _frame_rng(cfg.seed, i), frame_index=i)
        rates.append(fr.sum_rate)
        records.append(Record(sweep_value, f"{label}-frame{i}", fr.sum_rate, cfg.tau_p, p_aK, 0.0))
    mean = float(np.mean(rates))
    err = float(np.std(rates, ddof=1) / math.sqrt(n_frames)) if n_frames > 1 else 0.0
    records.append(Record(sweep_value, label, mean, cfg.tau_p, p_aK, err))
    return records


def run_experiment(spec: ExperimentSpec, *, seed_override: int | None = None, jobs: int = 1) -> dict[str, list[Record]]:
    """Execute a validated spec; returns records keyed by CSV suffix."""
    if spec.kind == "scaling-verify":  # each rung is its own system: of the block only the gain model is read
        model = parse_model((spec.system or {}).get("model"))
        records = []
        for pt in verify_scaling(spec.case, model, [tuple(r) for r in spec.ladder]):
            records.append(Record(pt.M, "Ra-opt", pt.rate, pt.tau_p_opt, pt.p_aK_opt, 0.0))
            records.append(Record(pt.M, "predicted", pt.prediction.rate, pt.prediction.tau_p,
                                  pt.prediction.p_aK, 0.0))
        return {"scaling": records}

    cfg, diags = build_system(spec.system, SYSTEM_UNREAD.get(spec.kind, ()))
    if cfg is None:
        raise ValueError("; ".join(map(str, diags)))
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)

    if spec.kind == "bound-eval":
        records = []
        for b in spec.bounds:
            res = BOUNDS[b](cfg)
            records.append(Record(cfg.tau_u, b, res.value, cfg.tau_p, cfg.p_a * cfg.K, res.mc_std_err))
        return {"bounds": records}

    if spec.kind == "optimize":
        return {"optimize": _methods_at_point(cfg, spec.methods, spec.evaluate_with, cfg.tau_u)}

    if spec.kind == "sweep":
        axis = spec.sweep_axis
        points = [replace(cfg, **{axis: v}, seed=point_seed(cfg.seed, i)) for i, v in enumerate(spec.sweep_values)]
        tasks = [(point, list(spec.methods), axis, spec.evaluate_with) for point in points]
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor  # on use: it costs every start-up 5-7 ms
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                chunks = list(pool.map(_sweep_point, tasks))
        else:
            chunks = [_sweep_point(t) for t in tasks]
        return {"rate": [r for chunk in chunks for r in chunk]}

    if spec.kind == "simulate":
        return {"simulate": _simulate(cfg, spec.n_slots, spec.n_frames, "simulated", cfg.tau_u)}

    if spec.kind == "compare":
        records = []
        for m in spec.methods:
            [rec] = _methods_at_point(cfg, [m], spec.evaluate_with, cfg.tau_u)
            at = at_point(cfg, rec.tau_p_opt, rec.p_aK_opt)
            records += [rec, *_simulate(at, spec.n_slots, spec.n_frames, f"{m}-sim", cfg.tau_u)]
        return {"compare": records}

    raise ValueError(f"unknown experiment kind {spec.kind!r}")
