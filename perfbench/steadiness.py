"""Do two sets of benchmark runs of the same code agree?

    python3 perfbench/steadiness.py

Runs BENCHMARK.json's command ten times on every workload in each of two
sets, one set after the other, each run with its own seed (set s, run i
uses seed 1 + 10*s + i). For every end-to-end metric on every workload it
prints each set's median and quartiles and the spread (q3 - q1) / median,
and flags a spread above the metric's bound (setup_s excepted), two
medians that differ by more than the bound (the larger over the smaller,
either way round; the gap printed is the second set's over the first's),
and a failed share that differs between the sets. Exits 1 when anything
is flagged. The runs are saved to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(cmd: list, workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - start
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                results[w][s].append(res)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {values} ({res['run_s']:.1f} s)", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(results, indent=1))

    per_set = sum(r["run_s"] for w in workloads for r in results[w][0])
    print(f"\none set took {per_set:.0f} s")
    flagged = 0
    print(f"\n{'workload':15} {'metric':12} " + " ".join(
        f"{'set ' + str(s) + ' median [q1, q3] spread':>42}" for s in range(SETS)) + "  gap  bound")
    for w in workloads:
        sets = results[w]
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}
        if len(shares) > 1 or not all(r["correct"] for runs in sets for r in runs):
            print(f"{w}: FLAG failed shares {sorted(shares)} or a run was not correct")
            flagged += 1
        for m in metrics:
            cells, medians = [], []
            flag = ""
            for runs in sets:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"{med:10.4f} [{q1:9.4f}, {q3:9.4f}] {spread:6.3f}")
                if m["name"] != "setup_s" and spread > m["bound"]:
                    flag = " FLAG spread"
            gap = medians[1] / medians[0] - 1.0
            if max(medians) / min(medians) - 1.0 > m["bound"]:
                flag += " FLAG gap"
            flagged += bool(flag)
            print(f"{w:15} {m['name']:12} " + " ".join(cells) + f" {gap:+.3f} {m['bound']}{flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
