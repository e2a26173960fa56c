"""Scenario and experiment configuration.

Experiments are described in YAML: a ``system`` block with the scenario
scalars plus the gain model, and experiment-kind specific keys. Parsing and
validation are separate steps so the CLI can distinguish syntax errors
(exit 2) from invariant violations (exit 3); ``validate`` is pure and
returns one diagnostic per problem, each naming the offending field.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Union

import numpy as np
import yaml

from .bounds import BOUNDS, COSTS, McConfig, mc_problems
from .channels import LargeScaleModel, LogNormalShadowing, RingPathLoss, UniformPowerError
from .optimize import METHODS, RATE_BOUND, RH0_MIN_TAU_U

# The top-level fields each kind reads besides kind, system and out_prefix; any other exits 3
KIND_FIELDS = {
    "bound-eval": ("bounds",),
    "optimize": ("methods", "evaluate_with"),
    "sweep": ("methods", "sweep", "evaluate_with"),
    "scaling-verify": ("case", "ladder"),
    "simulate": ("n_slots", "n_frames"),
    "compare": ("methods", "evaluate_with", "n_slots", "n_frames"),
}
KINDS = tuple(KIND_FIELDS)
# The system fields a kind does not read; they are dropped unchecked. optimize, sweep and
# compare choose tau_p and p_a, and scaling-verify reads the gain model only: each ladder
# rung is its own (M, tau_u) system of LADDER_K devices
SYSTEM_UNREAD = {
    "optimize": ("tau_p", "p_a"),
    "sweep": ("tau_p", "p_a"),
    "compare": ("tau_p", "p_a"),
    "scaling-verify": ("M", "K", "tau_u", "tau_p", "p_a", "seed", "mc"),
}
SWEEP_AXES = ("tau_u", "M", "K")
DEFAULT_K = 800
DEFAULT_DELTA_BAR = 10.0

_MODEL_TAGS = {
    "uniform": UniformPowerError,
    "lognormal": LogNormalShadowing,
    "pathloss": RingPathLoss,
}


class _SpecLoader(yaml.SafeLoader):
    """PyYAML's safe loader, which follows YAML 1.1, plus YAML 1.2's reading
    of an exponent float: ``3e-4`` and ``1.0e9`` load as floats, not strings."""


_SpecLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


class SpecParseError(Exception):
    """Raised when an experiment file cannot be parsed; carries line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where)


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of one scenario."""

    M: int
    K: int = DEFAULT_K
    tau_u: int = 100
    tau_p: int | None = None
    p_a: float | None = None
    model: LargeScaleModel = UniformPowerError(DEFAULT_DELTA_BAR, 0.0)
    seed: int = 0
    mc: McConfig = McConfig()

    def __post_init__(self):
        problems = _system_problems(vars(self))
        if problems:
            name, message = problems[0]
            raise ValueError(f"{name} {message}")


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _system_problems(v: dict) -> list[tuple[str, str]]:
    """Every violated SystemConfig invariant as (field, message), in field order."""
    problems = []
    for name, low in (("M", 2), ("K", 1), ("tau_u", 1)):
        if not (_is_integer(v[name]) and v[name] >= low):
            problems.append((name, f"must be an integer >= {low}"))
    tau_p, tau_u = v["tau_p"], v["tau_u"]
    top = tau_u if _is_integer(tau_u) else math.inf  # a bad tau_u is reported on its own
    if tau_p is not None and not (_is_integer(tau_p) and 1 <= tau_p <= top):
        problems.append(("tau_p", f"must be an integer in [1, tau_u={tau_u}]"))
    p_a = v["p_a"]
    if p_a is not None and not (isinstance(p_a, (float, int, np.integer, np.floating))
                                and not isinstance(p_a, bool) and 0.0 <= p_a <= 1.0):
        problems.append(("p_a", "must be a number in [0, 1]"))
    if not (_is_integer(v["seed"]) and v["seed"] >= 0):
        problems.append(("seed", "must be a non-negative integer"))
    return [(name, f"{rule} (got {v[name]!r})") for name, rule in problems]


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str

    def __str__(self):
        return f"{self.field}: {self.message}"


@dataclass
class ExperimentSpec:
    """One experiment: what to run, over what, and where the CSVs go."""

    kind: str
    system: dict = field(default_factory=dict)
    methods: list = field(default_factory=list)
    bounds: list = field(default_factory=lambda: ["R1"])
    sweep_axis: str = "tau_u"
    sweep_values: list = field(default_factory=list)
    evaluate_with: str = "R1"
    n_slots: int = 200
    n_frames: int = 1
    case: str = "balanced"
    ladder: list = field(default_factory=list)
    out_prefix: str = "experiment"
    given: frozenset = frozenset()  # the kind-specific top-level fields the file set


def parse_model(raw) -> LargeScaleModel:
    """Build a gain model from its YAML mapping. Raises ValueError on bad input."""
    if raw is None:
        return UniformPowerError(DEFAULT_DELTA_BAR, 0.0)
    if not isinstance(raw, dict):
        raise ValueError(f"model must be a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    tag = raw.pop("type", "uniform")
    cls = _MODEL_TAGS.get(tag)
    if cls is None:
        raise ValueError(f"unknown model type {tag!r}; expected one of {sorted(_MODEL_TAGS)}")
    raw.setdefault("delta_bar", DEFAULT_DELTA_BAR)
    allowed = {f.name for f in fields(cls)}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown model parameters {sorted(unknown)} for {tag!r}")
    for name, v in raw.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{name}: must be a real number (got {v!r})")
    return cls(**raw)


def build_system(raw: dict, unread=()) -> tuple[SystemConfig | None, list[Diagnostic]]:
    """Construct a SystemConfig from raw values, collecting diagnostics. The
    fields named in ``unread`` are dropped unchecked; without M there is no
    SystemConfig, and a missing M is reported unless M is unread."""
    if raw is not None and not isinstance(raw, dict):
        return None, [Diagnostic("system", "must be a mapping")]
    diags: list[Diagnostic] = []
    raw = {name: v for name, v in (raw or {}).items() if name not in unread}
    model_raw = raw.pop("model", None)
    mc_raw = raw.pop("mc", None)
    try:
        model = parse_model(model_raw)
    except (ValueError, TypeError) as exc:
        diags.append(Diagnostic("system.model", str(exc)))
        model = UniformPowerError(DEFAULT_DELTA_BAR, 0.0)
    if mc_raw is not None and not isinstance(mc_raw, dict):
        diags.append(Diagnostic("system.mc", f"must be a mapping, got {type(mc_raw).__name__}"))
    mc_raw = dict(mc_raw) if isinstance(mc_raw, dict) else {}
    for name in sorted(set(mc_raw) - {f.name for f in fields(McConfig)}, key=str):
        why = "the Monte Carlo seed comes from system.seed; remove it" if name == "seed" else "unknown field"
        diags.append(Diagnostic(f"system.mc.{name}", why))
        mc_raw.pop(name)
    mc_values = {f.name: f.default for f in fields(McConfig)} | mc_raw
    diags.extend(Diagnostic(f"system.mc.{name}", msg) for name, msg in mc_problems(mc_values))

    known = {f.name for f in fields(SystemConfig)} - {"model", "mc"}
    unknown = set(raw) - known
    for name in sorted(unknown):
        diags.append(Diagnostic(f"system.{name}", "unknown field"))
        raw.pop(name)
    if "M" not in raw:
        if "M" not in unread:
            diags.append(Diagnostic("system.M", "required field is missing"))
        return None, diags

    values = {f.name: f.default for f in fields(SystemConfig)} | raw
    diags.extend(Diagnostic(f"system.{name}", msg) for name, msg in _system_problems(values))
    if diags:
        return None, diags
    return SystemConfig(model=model, mc=McConfig(**mc_raw), **raw), diags


def parse_spec(source: Union[str, Path]) -> ExperimentSpec:
    """Parse an experiment file (or YAML string). Raises SpecParseError."""
    text = Path(source).read_text() if isinstance(source, Path) else str(source)
    try:
        raw = yaml.load(text, Loader=_SpecLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise SpecParseError(
            exc.problem or "malformed experiment file",
            None if mark is None else mark.line + 1,
            None if mark is None else mark.column + 1,
        ) from exc
    except yaml.YAMLError as exc:
        raise SpecParseError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise SpecParseError("experiment file must be a mapping", 1, 1)
    given = frozenset(raw) - {"kind", "system", "out_prefix"}  # a key that no kind reads is a parse error
    unknown = given.difference(*KIND_FIELDS.values())
    if unknown:
        raise SpecParseError(f"unknown top-level keys {sorted(unknown, key=str)}")
    # a sweep is spelt one way only, as sweep: {axis, values}
    sweep = raw.pop("sweep", None)
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise SpecParseError("sweep must be a mapping with axis/values")
        unknown = set(sweep) - {"axis", "values"}
        if unknown:
            raise SpecParseError(f"unknown sweep keys {sorted(unknown, key=str)}; expected axis/values")
        raw |= {f"sweep_{name}": v for name, v in sweep.items()}
    if "kind" not in raw:
        raise SpecParseError("missing required key 'kind'")
    return ExperimentSpec(**raw, given=given)


def validate(spec: ExperimentSpec) -> list[Diagnostic]:
    """Pure validation; an empty list means the spec can run. Each field in the
    kind's ``KIND_FIELDS`` row is checked, and any other field the file set is reported."""
    if spec.kind not in KINDS:
        return [Diagnostic("kind", f"unknown kind {spec.kind!r}; expected one of {KINDS}")]
    reads = KIND_FIELDS[spec.kind]
    diags = [Diagnostic(name, f"not read by kind {spec.kind}") for name in sorted(spec.given - set(reads))]
    lists = {name: getattr(spec, name.replace(".", "_"))  # sweep.values is held as sweep_values
             for name in ("methods", "bounds", "ladder", "sweep.values") if name.split(".")[0] in reads}
    for name, v in lists.items():  # a scalar or a mapping is reported here and read as empty below
        if not isinstance(v, list):
            diags.append(Diagnostic(name, f"must be a list (got {v!r})"))
            lists[name] = []
        elif not v:
            diags.append(Diagnostic(name, "must not be empty"))
    unread = SYSTEM_UNREAD.get(spec.kind, ())
    cfg, sys_diags = build_system(spec.system, unread)
    diags.extend(sys_diags)

    if "methods" in reads:
        for m in lists["methods"]:
            if m not in METHODS:
                diags.append(Diagnostic("methods", f"unknown method {m!r}; expected one of {METHODS}"))
        if cfg is not None and "Rh0" in lists["methods"]:  # check every slot length Rh0 will run on
            on_sweep = "sweep" in reads and spec.sweep_axis == "tau_u"
            where, slots = ("sweep.values", lists["sweep.values"]) if on_sweep else ("system.tau_u", [cfg.tau_u])
            diags.extend(Diagnostic(where, f"tau_u={v!r}: Rh0 needs tau_u >= {RH0_MIN_TAU_U}")
                         for v in slots if _is_integer(v) and v < RH0_MIN_TAU_U)
    if "sweep" in reads:
        if spec.sweep_axis not in SWEEP_AXES:
            diags.append(Diagnostic("sweep.axis", f"unknown axis {spec.sweep_axis!r}; expected one of {SWEEP_AXES}"))
        elif cfg is not None:  # every sweep point must itself be a valid system
            for v in lists["sweep.values"]:
                _, point = build_system({**spec.system, spec.sweep_axis: v}, unread)
                diags.extend(Diagnostic("sweep.values", f"{spec.sweep_axis}={v!r}: {d}") for d in point)
    if "bounds" in reads:
        for b in lists["bounds"]:
            if b not in tuple(BOUNDS):  # a tuple: a YAML list entry is unhashable
                diags.append(Diagnostic("bounds", f"unknown bound {b!r}"))
    if spec.kind in ("bound-eval", "simulate") and cfg is not None:
        for name in ("tau_p", "p_a"):
            if getattr(cfg, name) is None:
                diags.append(Diagnostic(f"system.{name}", f"{spec.kind} needs {name} set"))
    for name in ("n_slots", "n_frames"):
        v = getattr(spec, name)
        if name in reads and not (_is_integer(v) and v >= 1):
            diags.append(Diagnostic(name, f"must be an integer >= 1 (got {v!r})"))
    if "case" in reads:
        from .scaling import CASES  # local: scaling imports config, a cycle at module level

        if spec.case not in CASES:
            diags.append(Diagnostic("case", f"unknown case {spec.case!r}; expected one of {CASES}"))
    if "ladder" in reads:
        for i, rung in enumerate(lists["ladder"]):
            if not (isinstance(rung, (list, tuple)) and len(rung) == 2):
                diags.append(Diagnostic(f"ladder[{i}]", "each rung must be a (M, tau_u) pair of integers"))
                continue
            _, rung_diags = build_system({"M": rung[0], "tau_u": rung[1]})  # a rung is the system it runs
            diags.extend(Diagnostic(f"ladder[{i}]", str(d)) for d in rung_diags)
    if "evaluate_with" in reads and spec.evaluate_with not in COSTS:
        diags.append(Diagnostic("evaluate_with", f"unknown metric {spec.evaluate_with!r}; expected one of {COSTS}"))
    prefix = spec.out_prefix  # joined to --out: a path in it would write outside that directory
    if not (isinstance(prefix, str) and prefix and not {"/", "\\"} & set(prefix) and ".." not in prefix):
        diags.append(Diagnostic("out_prefix", f"must be a non-empty name without '/', '\\' or '..' (got {prefix!r})"))
    return diags


def evaluated_bounds(spec: ExperimentSpec) -> set[str]:
    """The bounds a valid spec's run evaluates, read off the fields its kind
    reads (``KIND_FIELDS``): ``bounds``, the bound behind each method
    (``RATE_BOUND``; the heuristics evaluate none), ``evaluate_with`` (R1 by
    default) and Ra for a ``ladder``, whose every rung is an Ra grid search."""
    reads = KIND_FIELDS[spec.kind]
    found = set(spec.bounds) if "bounds" in reads else set()
    if "methods" in reads:
        found.update(RATE_BOUND[m] for m in spec.methods if m in RATE_BOUND)
    if "evaluate_with" in reads:
        found.add(spec.evaluate_with)
    if "ladder" in reads:
        found.add("Ra")
    return found
