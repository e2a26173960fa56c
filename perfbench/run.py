"""Benchmark of pilothop through its command line, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S

Run from the repository root; pilothop is imported from ``src/``. Every spec
run is a fresh interpreter (users pay the cold start, the import and the
process-wide caches' warm-up on every ``pilothop run``) with BLAS and OpenMP
pinned to one thread. Rounds of the workload's spec runs repeat until
``--seconds`` have passed; every round is checked. The last line of stdout
is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: wall_s (median round time from the
start of each spec run to its CSVs being written, set-up excluded),
peak_rss_mb (median over rounds of the largest peak RSS of a spec run) and
setup_s (median over every spec run, topped up with ``pilothop validate``
starts to at least SETUP_SAMPLES, of the time from spawning the interpreter
until the package is imported and the spec validated).

--trace 1 runs each spec untraced and then traced in every round and reports
the per-layer metrics of tracing.py (median over rounds) together with
trace.overhead_ratio, the traced over the untraced wall time of a round.
Spans go to perfbench/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

ROOT = HERE.parent
OUT = HERE / "out"
TRACE = HERE / "trace"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cli_args: list, report: Path, trace_to: Path | None = None) -> dict:
    """Run one pilothop CLI command in a fresh interpreter; return its timings."""
    cmd = [sys.executable, str(HERE / "child.py"), str(report)]
    if trace_to is not None:
        cmd += ["--trace-to", str(trace_to)]
    report.unlink(missing_ok=True)
    start = time.monotonic()
    proc = subprocess.run(cmd + cli_args, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not report.exists():
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    rep = json.loads(report.read_text())
    if not Path(rep["package"]).resolve().is_relative_to(ROOT / "src"):
        raise ChildFailed(f"pilothop was imported from {rep['package']}, not from {ROOT / 'src'}")
    rep["setup_s"] = rep["ready"] - start
    rep["wall_s"] = rep["done"] - rep["ready"]
    return rep


def preflight() -> str | None:
    needed = [ROOT / "src" / "pilothop" / "cli.py"] + [
        ROOT / "specs" / f for f in ("bound_hierarchy.yaml", "scaling_antenna_rich.yaml", "protocol_validation.yaml")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    return f"missing {', '.join(missing)}: run from the root of a pilothop checkout" if missing else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    work = OUT / f"{name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        TRACE.mkdir(exist_ok=True)
    ops = WORKLOADS[name](seed, ROOT, work)
    report = work / "report.json"
    setups: list = []

    attempted = failed = 0
    problems: list = []
    log: list = []
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        walls, traced_walls, rss, layers = [], [], [], {}
        for op in ops:
            for traced in (False, True) if trace else (False,):
                out_dir = work / f"round{len(rounds)}{'-traced' if traced else ''}"
                attempted += 1
                spans = TRACE / f"{name}-seed{seed}-{op.name}-round{len(rounds)}.json" if traced else None
                try:
                    rep = spawn(op.cli_args(out_dir), report, spans)
                except (ChildFailed, subprocess.TimeoutExpired) as exc:
                    failed += 1
                    print(f"{op.name}: failed: {exc}", file=sys.stderr)
                    continue
                problems += op.verify(out_dir, rep["active_counts"])
                setups.append(rep["setup_s"])
                log.append({"op": op.name, "round": len(rounds), "traced": traced,
                            **{k: rep[k] for k in ("setup_s", "wall_s", "maxrss_kb")}})
                if traced:
                    lost = sum(rep["layers"][f"protocol.match_patterns.{k}_devices"] for k in ("missed", "false"))
                    if lost:
                        problems.append(f"{op.name}: {lost} identified devices differ from the active ones")
                    traced_walls.append(rep["wall_s"])
                    for k, v in rep["layers"].items():
                        layers[k] = layers.get(k, 0) + v
                else:
                    walls.append(rep["wall_s"])
                    rss.append(rep["maxrss_kb"] / 1024.0)
        if len(walls) == len(ops) and (not trace or len(traced_walls) == len(ops)):
            rounds.append({"wall_s": sum(walls), "peak_rss_mb": max(rss),
                           "traced_wall_s": sum(traced_walls), "layers": layers})
        elif not rounds and time.monotonic() - start >= seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(["validate", str(ops[len(setups) % len(ops)].spec)], report)["setup_s"])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    (work / "ops.json").write_text(json.dumps(log, indent=1))

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if not rounds:
        metrics = {}
    elif trace:
        layers = {k: statistics.median(r["layers"][k] for r in rounds) for k in rounds[0]["layers"]}
        layers["trace.overhead_ratio"] = statistics.median(r["traced_wall_s"] / r["wall_s"] for r in rounds)
        (TRACE / f"{name}-seed{seed}-layers.json").write_text(json.dumps(layers, indent=1))
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {"wall_s": {"value": median("wall_s"), "unit": "s"},
                   "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"}}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; expected one of {list(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    for n, res in results.items():
        print(f"{n}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
