"""Guards on the shipped specs: the CSV bytes of the fast ones, that every
spec the repository ships (``specs/``, the benchmark's, the README's)
validates, that their runs import every module during start-up, and that
they call every function of the package that is not kept on purpose.

The files under ``tests/golden/`` were written by ``pilothop run`` on each
spec at its own seed. A refactor that keeps the arithmetic must keep them.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from pilothop.cli import main
from pilothop.config import KIND_FIELDS, evaluated_bounds, parse_spec, validate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("spec, csv", [
    ("bound_hierarchy.yaml", "hierarchy_bounds.csv"),
    ("scaling_antenna_rich.yaml", "case1_scaling.csv"),
    ("protocol_validation.yaml", "validation_compare.csv"),
])
def test_shipped_spec_csv_is_byte_identical(tmp_path, spec, csv):
    assert main(["run", str(ROOT / "specs" / spec), "--out", str(tmp_path)]) == 0
    assert (tmp_path / csv).read_bytes() == (GOLDEN / csv).read_bytes()


# R3/Ra grid searches and the two 1-D methods on spread gains, one sweep
# point each: a ring re-evaluated under R3, log-normal gains under Ra
ANALYTIC_SWEEPS = {
    "ring_r3": ({"type": "pathloss", "delta_bar": 10.0, "alpha": 0.25}, "R3", 180),
    "shadowed_ra": ({"type": "lognormal", "delta_bar": 10.0, "sigma_v2": 4.0}, "Ra", 60),
}


@pytest.mark.parametrize("prefix", list(ANALYTIC_SWEEPS))
def test_analytic_sweep_csv_is_byte_identical(tmp_path, prefix):
    model, bound, tau_u = ANALYTIC_SWEEPS[prefix]
    spec = tmp_path / f"{prefix}.yaml"
    spec.write_text(yaml.safe_dump({
        "kind": "sweep", "system": {"M": 100, "K": 800, "seed": 5, "model": model},
        "methods": ["R3-opt", "Ra-opt", "Ra-1D", "Rh-1D"], "sweep": {"axis": "tau_u", "values": [tau_u]},
        "evaluate_with": bound, "out_prefix": prefix,
    }, sort_keys=False))
    assert main(["run", str(spec), "--out", str(tmp_path)]) == 0
    csv = f"{prefix}_rate.csv"
    assert (tmp_path / csv).read_bytes() == (GOLDEN / csv).read_bytes()


def test_r1_r2_csvs_do_not_depend_on_blas_threads(tmp_path):
    # the shipped hierarchy (R1 and R2 beside R3 and Ra) and a one-point R1-opt sweep write the
    # same bytes under one and two BLAS threads
    sweep = tmp_path / "r1_opt.yaml"
    sweep.write_text(yaml.safe_dump({
        "kind": "sweep", "system": {"M": 100, "K": 800, "seed": 7,
                                    "model": {"type": "pathloss", "delta_bar": 10.0, "alpha": 0.25},
                                    "mc": {"n_beta_samples": 500}},
        "methods": ["R1-opt"], "sweep": {"axis": "tau_u", "values": [120]}, "evaluate_with": "R1",
        "out_prefix": "r1_opt",
    }, sort_keys=False))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    written = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / threads
        for spec in (ROOT / "specs" / "bound_hierarchy.yaml", sweep):
            run = subprocess.run([sys.executable, "-m", "pilothop.cli", "run", str(spec), "--out", str(out)],
                                 env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr[-2000:]
        written[threads] = {csv.name: csv.read_bytes() for csv in sorted(out.glob("*.csv"))}
    assert sorted(written["1"]) == ["hierarchy_bounds.csv", "r1_opt_rate.csv"]
    assert written["1"] == written["2"]


def _benchmark_ops(tmp_path, monkeypatch) -> list:
    """The ops of every perfbench workload at seed 1, their specs written under tmp_path."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads.py imports oracle from there
    loader = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, workloads)  # dataclasses look their module up there
    loader.loader.exec_module(workloads)
    return [op for build in workloads.WORKLOADS.values() for op in build(1, ROOT, tmp_path)]


SHIPPED = sorted((ROOT / "specs").glob("*.yaml"))


def test_shipped_and_benchmark_specs_validate(tmp_path, monkeypatch):
    # a stricter schema must not turn a benchmark run into a failed one
    ops = [op.spec for op in _benchmark_ops(tmp_path, monkeypatch)]
    assert len(ops) >= 8 and len(SHIPPED) >= 4
    assert {str(path): [str(d) for d in validate(parse_spec(path))] for path in ops + SHIPPED} == \
        {str(path): [] for path in ops + SHIPPED}


def test_evaluated_bounds_of_the_shipped_specs():
    assert {path.stem: evaluated_bounds(parse_spec(path)) for path in SHIPPED} == {
        "bound_hierarchy": {"R1", "R2", "R3", "Ra"},
        "fig6_sweep": {"R1", "Ra"},
        "protocol_validation": {"R1", "Ra"},  # Ra-opt, written under the default evaluate_with
        "scaling_antenna_rich": {"Ra"},
    }


# Runs one `pilothop` command and prints [exit code, scipy's binomial ufuncs loaded at entry
# into run_experiment, binom_pmf called during the run, modules imported during the run,
# functions of src/pilothop called]; a command that runs no experiment prints null for the
# second and fourth. Calls are recorded from before the package is imported, as call events
# only: the tracer returns None, so no line event fires.
_WATCHED_RUN = """
import json, os, sys
called, src = set(), os.path.join(sys.argv[1], "")
def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        called.add((os.path.basename(code.co_filename)[:-3], code.co_qualname))
sys.settrace(tracer)
from pilothop import access, cli
took, seen = [], {}
binom_pmf, run_experiment = access.binom_pmf, cli.run_experiment
def counted(*args, **kwargs):
    took.append(1)
    return binom_pmf(*args, **kwargs)
def watched(*args, **kwargs):
    seen["scipy"], before = "scipy.special._ufuncs" in sys.modules, set(sys.modules)
    out = run_experiment(*args, **kwargs)
    seen["imported"] = sorted(set(sys.modules) - before)
    return out
access.binom_pmf, cli.run_experiment = counted, watched
rc = cli.main(sys.argv[2:])
sys.settrace(None)
print(json.dumps([rc, seen.get("scipy"), bool(took), seen.get("imported"), sorted(called)]))
"""


@pytest.fixture(scope="module")
def watched_runs(tmp_path_factory):
    """Each benchmark op and shipped spec run through ``_WATCHED_RUN`` (name -> (spec, its output, or
    the tail of its stderr if it failed)), and ``pilothop validate`` of each shipped spec."""
    tmp_path = tmp_path_factory.mktemp("watched")
    with pytest.MonkeyPatch.context() as monkeypatch:
        ops = _benchmark_ops(tmp_path, monkeypatch)
    runs = {op.name: (op.spec, op.cli_args(tmp_path / op.name)) for op in ops}
    runs |= {path.stem: (path, ["run", str(path), "--out", str(tmp_path / path.stem), "--jobs", "1"])
             for path in SHIPPED}
    runs |= {f"validate {path.stem}": (path, ["validate", str(path)]) for path in SHIPPED}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    seen = {}
    for name, (spec, args) in runs.items():
        out = subprocess.run([sys.executable, "-c", _WATCHED_RUN, str(ROOT / "src" / "pilothop"), *args],
                             env=env, capture_output=True, text=True)
        seen[name] = spec, json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0 else out.stderr[-400:]
    return seen


def test_runs_import_nothing_and_load_scipy_at_start_up_only_for_binomials(watched_runs):
    # setup_s ends at entry into run_experiment, so no run may import a module after it; scipy's
    # binomial ufuncs are loaded before that entry exactly when the spec evaluates R1 or R2
    seen, want = {}, {}
    for name, (spec, out) in watched_runs.items():
        if not name.startswith("validate "):
            seen[name] = out[:4] if isinstance(out, list) else out
            binomial = bool({"R1", "R2"} & evaluated_bounds(parse_spec(spec)))
            want[name] = [0, binomial, binomial, []]
    assert seen == want
    assert {binomial for _, binomial, _, _ in want.values()} == {False, True}  # both kinds of run are covered


def test_every_function_of_the_package_is_called_by_some_run(watched_runs):
    # a top-level function that no benchmark op, shipped spec run or validation calls is code
    # only tests reach; the allowed ones are the names perfbench/tracing.py pins and the public
    # names kept unread
    from test_source import KEPT_UNREAD, _tracer_pinned

    failed = {name: out for name, (_, out) in watched_runs.items() if not (isinstance(out, list) and out[0] == 0)}
    assert not failed
    called = {tuple(pair) for _, (_, out) in watched_runs.items() for pair in out[4]}
    defined = {(path.stem, node.name) for path in sorted((ROOT / "src" / "pilothop").glob("*.py"))
               for node in ast.parse(path.read_text(), filename=str(path)).body if isinstance(node, ast.FunctionDef)}
    allowed = {name for _, name in _tracer_pinned()} | set(KEPT_UNREAD)
    assert len(defined) > 50 and len(called & defined) > 50
    assert sorted(f"{mod}.{name}" for mod, name in defined - called if name not in allowed) == []


README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("block", re.findall(r"```yaml\n(.*?)```", README, re.S))
def test_readme_yaml_examples_validate(block):
    assert [str(d) for d in validate(parse_spec(block))] == []


def test_readme_field_table_is_kind_fields():
    rows = re.findall(r"^\| `([a-z-]+)` +\| (.+?) +\|$", README, re.M)
    assert {kind: tuple(re.findall(r"`(\w+)`", cells)) for kind, cells in rows} == KIND_FIELDS
