"""The benchmark's workloads: the spec runs of one round and their output checks.

Each workload maps a seed to a list of ``Op``s. An op is one ``pilothop run``
of one experiment file; its check reads the CSVs the run wrote (and the
active count of each simulated frame, which the child process records) and
returns a list of problems (empty when the output is right). Checks compare against
``oracle`` (computed independently of pilothop) or against properties the
method must have, never against stored output. Every round after the first
must also reproduce the first round's CSV bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import oracle

TAU_U_SWEEP = [60, 180, 300]
RING = {"type": "pathloss", "delta_bar": 10.0, "alpha": 0.25}
SHADOWED = {"type": "lognormal", "delta_bar": 10.0, "sigma_v2": 4.0}
SPREAD = {"type": "uniform", "delta_bar": 10.0, "alpha": 0.5}
POWER_CONTROLLED = {"type": "uniform", "delta_bar": 10.0, "alpha": 0.0}


@dataclass
class Op:
    name: str
    spec: Path
    prefix: str
    check: Callable[[dict, list], list]
    seed_override: int | None = None
    csv_bytes: dict = field(default_factory=dict)

    def cli_args(self, out_dir: Path) -> list:
        args = ["run", str(self.spec), "--out", str(out_dir), "--jobs", "1"]
        if self.seed_override is not None:
            args += ["--seed", str(self.seed_override)]
        return args

    def verify(self, out_dir: Path, active_counts: list) -> list:
        """Problems with one run's output: its checks, then byte-identity
        with the first run of this op (same spec and seed). ``active_counts``
        holds the active-device count of every frame the run simulated."""
        files = sorted(out_dir.glob(f"{self.prefix}_*.csv"))
        if not files:
            return [f"{self.name}: no CSV written"]
        written = {f.name: f.read_bytes() for f in files}
        if self.csv_bytes:
            if written != self.csv_bytes:
                return [f"{self.name}: CSV bytes differ from the first run with the same seed"]
            return []
        self.csv_bytes = written
        tables = {name: list(csv.DictReader(data.decode().splitlines())) for name, data in written.items()}
        try:
            return [f"{self.name}: {p}" for p in self.check(tables, active_counts)]
        except (KeyError, ValueError, IndexError, ArithmeticError) as exc:
            return [f"{self.name}: malformed output ({exc!r})"]


def write_spec(path: Path, spec: dict) -> Path:
    path.write_text(yaml.safe_dump(spec, sort_keys=False))
    return path


def shipped_system(spec: Path) -> dict:
    """System block of a shipped experiment file, with pilothop's defaults filled in."""
    system = {"K": 800, "tau_u": 100, **yaml.safe_load(spec.read_text())["system"]}
    system["model"] = {"delta_bar": 10.0, **system.get("model", {})}
    return system


def oracle_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence((seed, 0x0AC1E, salt)).generate_state(1)[0])


def _rows(tables: dict, suffix: str) -> list:
    (rows,) = [t for name, t in tables.items() if name.endswith(suffix)]
    return rows


def _agree(name: str, got: float, got_err: float, want: float, want_err: float) -> list:
    """Within 4 combined standard errors, or 1e-6 relative when both are exact."""
    sigma = math.hypot(got_err, want_err)
    tol = 4.0 * sigma if sigma > 0 else 1e-6 * abs(want)
    if abs(got - want) > tol:
        return [f"{name}: {got:.6g} vs oracle {want:.6g} (tolerance {tol:.3g})"]
    return []


def _frames_vs_r1(rows: list, label: str, system: dict, n_slots: int, active_counts: list, seed: int) -> list:
    """Each simulated frame's sum rate against the oracle's R1 at the active
    count K_a that frame drew: at least R1(K_a) less 4 sigma and at most
    1.5 R1(K_a), sigma being the spread of the oracle's own frames of
    ``n_slots`` slots at that K_a. The label's row must be the frames' mean.

    A frame pins one K_a, and R1(K_a) is flat near the mean of K_a but falls
    steeply in its lower tail, so a limit set by the averaged R1 alone either
    fails correct frames that draw a low K_a or lets a much-degraded typical
    frame through.
    """
    (row,) = [r for r in rows if r["method"] == label]
    frames = [r for r in rows if r["method"].startswith(f"{label}-frame")]
    if len(frames) != len(active_counts):
        return [f"{label}: {len(frames)} frame rows but {len(active_counts)} frames run"]
    tau_p, p_aK = int(row["tau_p_opt"]), float(row["p_aK_opt"])
    M, K, tau_u, model = system["M"], system["K"], system["tau_u"], system["model"]
    _, _, (ka, _, cond) = oracle.r1(M, K, tau_u, tau_p, p_aK, model, seed=oracle_seed(seed, 8), per_active=True)
    problems = []
    for i, (frame, k) in enumerate(zip(frames, active_counts)):
        if k not in ka:
            problems.append(f"{frame['method']}: drew K_a = {k}, outside the oracle's activation window")
            continue
        want = float(cond[ka == k][0])
        spread = oracle.frame_rates(M, k, tau_u, tau_p, model, n_slots, oracle_seed(seed, 9 + i)).std(ddof=1)
        got, low = float(frame["rate"]), want - 4.0 * spread
        if not low <= got <= 1.5 * want:
            problems.append(f"{frame['method']} (K_a = {k}): simulated {got:.4f} outside "
                            f"[R1(K_a) - 4 sigma = {low:.4f}, 1.5 R1(K_a) = {1.5 * want:.4f}]")
    mean = float(np.mean([float(f["rate"]) for f in frames]))
    if abs(float(row["rate"]) - mean) > 1e-8 * abs(mean):
        problems.append(f"{label}: {float(row['rate']):.9g} is not the mean {mean:.9g} of its frames")
    return problems


# -- r1-sweep ---------------------------------------------------------------

def r1_sweep(seed: int, root: Path, work: Path) -> list:
    system = {"M": 100, "K": 800, "seed": seed, "model": RING, "mc": {"n_beta_samples": 500, "eps_tail": 1.0e-9}}
    tau_u = 120
    spec = write_spec(work / "r1_sweep.yaml", {
        "kind": "sweep", "system": system, "methods": ["R1-opt", "Ra-opt", "Rh0", "Rh-1D"],
        "sweep": {"axis": "tau_u", "values": [tau_u]}, "evaluate_with": "R1", "out_prefix": "r1",
    })

    def check(tables, _active_counts):
        problems = []
        rows = _rows(tables, "_rate.csv")
        ref = {}
        for r in rows:
            tau_p, p_aK = int(r["tau_p_opt"]), float(r["p_aK_opt"])
            # one oracle seed for every row: common draws make the ratio below sharp
            ref[r["method"]] = oracle.r1(system["M"], system["K"], tau_u, tau_p, p_aK, RING,
                                         seed=oracle_seed(seed, 1))
            problems += _agree(f"{r['method']} R1", float(r["rate"]), float(r["mc_std_err"]), *ref[r["method"]])
            if not 0.2 <= tau_p / tau_u <= 0.55:
                problems.append(f"{r['method']}: tau_p/tau_u = {tau_p / tau_u:.3f} outside [0.2, 0.55]")
        if sorted(ref) != ["R1-opt", "Ra-opt", "Rh-1D", "Rh0"]:
            return problems + [f"methods {sorted(ref)} are not the four asked for"]
        (r1v, e1), (rav, ea) = ref["R1-opt"], ref["Ra-opt"]
        ratio = rav / r1v
        sigma = ratio * math.hypot(e1 / r1v, ea / rav)
        if ratio < 0.92 - 3.0 * sigma:
            problems.append(f"R1 at the Ra-opt point is {ratio:.4f} of R1 at the R1-opt point (< 0.92 - 3 sigma)")
        return problems

    return [Op("r1-sweep", spec, "r1", check)]


# -- analytic-sweep -----------------------------------------------------------

def _bound_rows_check(bound: str, model: dict, K: int, M_of: Callable, tau_u_of: Callable, rows: list,
                      method: str | None = None) -> list:
    """R3 or Ra rows against the oracle's quadrature; M and tau_u are read off each row."""
    fn = oracle.r3 if bound == "R3" else oracle.ra
    problems = []
    for r in rows:
        if method is not None and r["method"] != method:
            continue
        want = fn(M_of(r), K, tau_u_of(r), int(r["tau_p_opt"]), float(r["p_aK_opt"]), model)
        got, err = float(r["rate"]), float(r["mc_std_err"])
        problems += _agree(f"{r['method']} at {r['sweep_value']} {bound}", got, err, want, 0.0)
    return problems


def analytic_sweep(seed: int, root: Path, work: Path) -> list:
    ops = []
    methods = ["R3-opt", "Ra-opt", "Ra-1D", "Rh-1D"]
    for tag, model, bound in (("spread", RING, "R3"), ("shadowed", SHADOWED, "Ra")):
        spec = write_spec(work / f"analytic_{tag}.yaml", {
            "kind": "sweep", "system": {"M": 100, "K": 800, "seed": seed, "model": model},
            "methods": methods, "sweep": {"axis": "tau_u", "values": TAU_U_SWEEP},
            "evaluate_with": bound, "out_prefix": f"analytic_{tag}",
        })

        def check(tables, _active_counts, model=model, bound=bound):
            rows = _rows(tables, "_rate.csv")
            if len(rows) != len(methods) * len(TAU_U_SWEEP):
                return [f"{len(rows)} rows, expected {len(methods) * len(TAU_U_SWEEP)}"]
            return _bound_rows_check(bound, model, 800, lambda r: 100, lambda r: int(r["sweep_value"]), rows)

        ops.append(Op(f"analytic-{tag}", spec, f"analytic_{tag}", check))

    hierarchy = root / "specs" / "bound_hierarchy.yaml"

    def check_hierarchy(tables, _active_counts):
        system = shipped_system(hierarchy)
        M, K, tau_u, model = system["M"], system["K"], system["tau_u"], system["model"]
        rows = {r["method"]: r for r in _rows(tables, "_bounds.csv")}
        r1 = rows["R1"]
        tau_p, p_aK = int(r1["tau_p_opt"]), float(r1["p_aK_opt"])
        problems = _agree("R1", float(r1["rate"]), float(r1["mc_std_err"]),
                          *oracle.r1(M, K, tau_u, tau_p, p_aK, model, seed=oracle_seed(seed, 2)))
        for b in ("R3", "Ra"):
            problems += _bound_rows_check(b, model, K, lambda r: M, lambda r: tau_u, [rows[b]])
        r1v, e1 = float(r1["rate"]), float(r1["mc_std_err"])
        for b in ("R2", "R3"):
            v, e = float(rows[b]["rate"]), float(rows[b]["mc_std_err"])
            if v > r1v + 3.0 * math.hypot(e1, e):
                problems.append(f"{b} = {v:.4f} exceeds R1 + 3 sigma = {r1v + 3.0 * math.hypot(e1, e):.4f}")
        return problems

    ops.append(Op("hierarchy", hierarchy, "hierarchy", check_hierarchy, seed_override=seed))

    antenna = root / "specs" / "scaling_antenna_rich.yaml"

    def check_ladder(rows, bound_model, tau_u_of, shrink=(), max_rate_err=None):
        problems = _bound_rows_check("Ra", bound_model, 10**6, lambda r: int(r["sweep_value"]), tau_u_of, rows,
                                     method="Ra-opt")
        opt = [r for r in rows if r["method"] == "Ra-opt"]
        pred = [r for r in rows if r["method"] == "predicted"]
        if len(opt) != len(pred) or len(opt) < 2:
            return problems + [f"ladder has {len(opt)} optimized and {len(pred)} predicted rungs"]
        errs = {col: [abs(float(o[col]) - float(p[col])) / float(p[col]) for o, p in zip(opt, pred)]
                for col in ("tau_p_opt", "rate")}
        for col in shrink:
            e = errs[col]
            if any(b > a for a, b in zip(e, e[1:])):
                problems.append(f"{col} errors {['%.4f' % x for x in e]} do not shrink rung to rung")
        if max_rate_err is not None and max(errs["rate"]) > max_rate_err:
            problems.append(f"rate errors {['%.2e' % x for x in errs['rate']]} exceed {max_rate_err}")
        return problems

    def check_antenna(tables, _active_counts):
        # verify_scaling runs each rung at the spec's ladder; sweep_value is M
        ladder = dict(yaml.safe_load(antenna.read_text())["ladder"])
        return check_ladder(_rows(tables, "_scaling.csv"), shipped_system(antenna)["model"],
                            lambda r: ladder[int(r["sweep_value"])], shrink=("tau_p_opt", "rate"))

    ops.append(Op("antenna-rich", antenna, "case1", check_antenna, seed_override=seed))

    ladder = [[100, 100], [400, 400], [1600, 1600]]
    balanced = write_spec(work / "balanced.yaml", {
        "kind": "scaling-verify", "system": {"M": 100, "seed": seed, "model": SPREAD},
        "case": "balanced", "ladder": ladder, "out_prefix": "balanced",
    })

    def check_balanced(tables, _active_counts):
        # at delta = M/tau_u = 1 the balanced functional is Ra rescaled, so the
        # grid optimum must sit on the predicted optimum up to grid resolution
        return check_ladder(_rows(tables, "_scaling.csv"), SPREAD, lambda r: int(r["sweep_value"]),
                            max_rate_err=1e-3)

    ops.append(Op("balanced", balanced, "balanced", check_balanced))
    return ops


# -- slot workloads -------------------------------------------------------------

def slot_mmtc(seed: int, root: Path, work: Path) -> list:
    system = {"M": 100, "K": 100000, "tau_u": 100, "tau_p": 33, "p_a": 0.0003, "seed": seed,
              "model": POWER_CONTROLLED}
    spec = write_spec(work / "slot_mmtc.yaml", {
        "kind": "simulate", "system": system, "n_slots": 200, "n_frames": 1, "out_prefix": "mmtc",
    })

    def check(tables, active_counts):
        return _frames_vs_r1(_rows(tables, "_simulate.csv"), "simulated", system, 200, active_counts, seed)

    return [Op("slot-mmtc", spec, "mmtc", check)]


def slot_dense(seed: int, root: Path, work: Path) -> list:
    spec = root / "specs" / "protocol_validation.yaml"

    def check(tables, active_counts):
        system = shipped_system(spec)
        rows = _rows(tables, "_compare.csv")
        (bound,) = [r for r in rows if r["method"] == "Ra-opt"]
        tau_p, p_aK = int(bound["tau_p_opt"]), float(bound["p_aK_opt"])
        problems = _agree("Ra-opt R1", float(bound["rate"]), float(bound["mc_std_err"]),
                          *oracle.r1(system["M"], system["K"], system["tau_u"], tau_p, p_aK, system["model"],
                                     seed=oracle_seed(seed, 3)))
        n_slots = yaml.safe_load(spec.read_text())["n_slots"]
        return problems + _frames_vs_r1(rows, "Ra-opt-sim", system, n_slots, active_counts, seed)

    return [Op("slot-dense", spec, "validation", check, seed_override=seed)]


WORKLOADS = {
    "r1-sweep": r1_sweep,
    "analytic-sweep": analytic_sweep,
    "slot-mmtc": slot_mmtc,
    "slot-dense": slot_dense,
}
