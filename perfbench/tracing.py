"""Per-layer tracing of pilothop from outside the package.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds every name that refers to them in the loaded pilothop modules (a
module that did ``from .access import truncate_support`` looks the name up
in its own globals, so that is where the wrapper must go; dict tables of
functions are patched too). Each call records a span (name, start, end,
parent) in memory, and a few wrappers read counts of work or of receiver
failures off the arguments and results. ``Tracer.finish`` writes the spans
out and returns the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "config": ("parse_spec", "validate"),
    "experiments": ("run_experiment", "format_csv"),
    "access": ("binom_pmf", "truncate_support", "sample_active_set"),
    "bounds": ("r1_bar", "r2_bar", "r3", "ra"),
    "channels": ("sample_beta", "expect_beta", "beta_nodes", "sample_channels"),
    "optimize": ("grid_opt",),
    "scaling": ("verify_scaling", "solve_ab"),
    "protocol": ("all_patterns", "match_patterns", "simulate_slot", "mrc_and_measure", "run_frame"),
}

EXTRA_COUNTS = (
    "access.binom_pmf.points",
    "bounds.r1_bar.collider_columns",
    "bounds.r1_bar.unique_collider_columns",
    "optimize.grid_opt.evals",
    "protocol.all_patterns.bytes",
    "protocol.simulate_slot.missed_pilots",
    "protocol.simulate_slot.false_pilots",
    "protocol.match_patterns.missed_devices",
    "protocol.match_patterns.false_devices",
)


def _eps_tail(args, kwargs) -> float:
    mc = args[2] if len(args) > 2 else kwargs.get("mc")
    return 1e-9 if mc is None else mc.eps_tail


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.r1_points: list = []
        self.originals: dict = {}

    # observers of one call: (args, kwargs, result) -> None
    def _binom_pmf(self, args, kwargs, result):
        self.counts["access.binom_pmf.points"] += int(np.size(args[0] if args else kwargs["k"]))

    def _r1_bar(self, args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        self.r1_points.append((cfg.K, cfg.p_a, cfg.tau_p, cfg.tau_u, _eps_tail(args, kwargs)))

    def _grid_opt(self, args, kwargs, result):
        self.counts["optimize.grid_opt.evals"] += int(result.evaluations)

    def _all_patterns(self, args, kwargs, result):
        self.counts["protocol.all_patterns.bytes"] += int(result.nbytes)

    def _simulate_slot(self, args, kwargs, result):
        used = np.unique(result.pilot_of_device)
        self.counts["protocol.simulate_slot.missed_pilots"] += int(np.setdiff1d(used, result.detected).size)
        self.counts["protocol.simulate_slot.false_pilots"] += int(np.setdiff1d(result.detected, used).size)

    def _match_patterns(self, args, kwargs, result):
        self.counts["protocol.match_patterns.missed_devices"] += int(result.missed.size)
        self.counts["protocol.match_patterns.false_devices"] += int(result.false.size)

    def _wrap(self, name: str, fn):
        observe = {
            "access.binom_pmf": self._binom_pmf,
            "bounds.r1_bar": self._r1_bar,
            "optimize.grid_opt": self._grid_opt,
            "protocol.all_patterns": self._all_patterns,
            "protocol.simulate_slot": self._simulate_slot,
            "protocol.match_patterns": self._match_patterns,
        }.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]  # [span index, time covered by child spans]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                # the observer's own time is the tracer's, not the caller's
                observed = time.perf_counter()
                observe(args, kwargs, return_value)
                if stack:
                    stack[-1][1] += time.perf_counter() - observed
            return return_value

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        import importlib

        modules = [importlib.import_module(f"pilothop.{m}") for m in (*LAYERS, "cli")]
        replace = {}
        for mod_name, names in LAYERS.items():
            mod = sys.modules[f"pilothop.{mod_name}"]
            for fname in names:
                orig = getattr(mod, fname)
                name = f"{mod_name}.{fname}"
                self.originals[name] = orig
                replace[id(orig)] = self._wrap(name, orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]
        return self

    def _collider_columns(self) -> tuple[int, int]:
        """Collision-window columns the R1 calls asked for, total and distinct.

        Mirrors the averaged-bound engine: one column per collider count in
        the truncated window of every active count K_a >= 1 in the truncated
        activation window. Uses the unwrapped public ``truncate_support``.
        """
        from pilothop.access import ActivationLaw, CollisionLaw

        support = self.originals["access.truncate_support"]
        widths: dict = {}
        total = 0
        for K, p_a, tau_p, tau_u, eps in self.r1_points:
            if not p_a or tau_p >= tau_u:
                continue
            act = support(ActivationLaw(K, p_a), eps)
            for K_a in range(max(act.lo, 1), act.hi + 1):
                key = (K_a, tau_p, eps)
                if key not in widths:
                    sup = support(CollisionLaw(K_a, tau_p), eps)
                    widths[key] = sup.hi - sup.lo + 1
                total += widths[key]
        return total, sum(widths.values())

    def finish(self, trace_path: str) -> dict:
        columns, unique = self._collider_columns()
        self.counts["bounds.r1_bar.collider_columns"] += columns
        self.counts["bounds.r1_bar.unique_collider_columns"] += unique
        metrics = {}
        for mod_name, names in LAYERS.items():
            for fname in names:
                name = f"{mod_name}.{fname}"
                metrics[f"{name}.calls"] = self.calls[name]
                metrics[f"{name}.self_s"] = self.self_s[name]
        for name in EXTRA_COUNTS:
            metrics[name] = self.counts[name]
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
        return metrics
