"""Run one ``pilothop`` CLI command in this (fresh) interpreter and report on it.

    python3 child.py REPORT.json [--trace-to SPANS.json] run|validate SPEC [CLI options]

Writes REPORT.json with the CLI's exit code, the monotonic clock when the
set-up was done (the package imported and the spec parsed and validated:
for ``run`` that is entry into ``run_experiment``), the clock when the CLI
returned (CSVs written), the peak resident set size of this process, the
number of active devices in every simulated frame, and,
with ``--trace-to``, the per-layer metrics. CLOCK_MONOTONIC is system-wide,
so the parent subtracts its own spawn time from ``ready``.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    report_path, argv = argv[0], list(argv[1:])
    trace_path = None
    if argv[0] == "--trace-to":
        trace_path, argv = argv[1], argv[2:]

    from pilothop import cli, experiments

    tracer = None
    if trace_path is not None:
        from tracing import Tracer

        tracer = Tracer().install()
    marks = {}
    run_experiment = cli.run_experiment

    def marked(*args, **kwargs):
        marks["ready"] = time.monotonic()
        return run_experiment(*args, **kwargs)

    cli.run_experiment = marked
    active_counts = []
    run_frame = experiments.run_frame

    def counted(*args, **kwargs):
        frame = run_frame(*args, **kwargs)
        active_counts.append(int(frame.active.size))
        return frame

    experiments.run_frame = counted
    rc = cli.main(argv)
    done = time.monotonic()
    report = {
        "rc": rc,
        "ready": marks.get("ready", done),
        "done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "active_counts": active_counts,
        "package": cli.__file__,
    }
    if tracer is not None:
        report["layers"] = tracer.finish(trace_path)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
