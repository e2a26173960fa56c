"""Guards on the shipped specs: the CSV bytes of the fast ones, and that every
spec the repository ships (``specs/``, the benchmark's, the README's) validates.

The files under ``tests/golden/`` were written by ``pilothop run`` on each
spec at its own seed. A refactor that keeps the arithmetic must keep them.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest
import yaml

from pilothop.cli import main
from pilothop.config import KIND_FIELDS, parse_spec, validate

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


def test_shipped_and_benchmark_specs_validate(tmp_path, monkeypatch):
    # a stricter schema must not turn a benchmark run into a failed one
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads.py imports oracle from there
    loader = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, workloads)  # dataclasses look their module up there
    loader.loader.exec_module(workloads)
    ops = [op.spec for build in workloads.WORKLOADS.values() for op in build(1, ROOT, tmp_path)]
    specs = sorted((ROOT / "specs").glob("*.yaml"))
    assert len(ops) >= 8 and len(specs) >= 4
    assert {str(path): [str(d) for d in validate(parse_spec(path))] for path in ops + specs} == \
        {str(path): [] for path in ops + specs}


README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("block", re.findall(r"```yaml\n(.*?)```", README, re.S))
def test_readme_yaml_examples_validate(block):
    assert [str(d) for d in validate(parse_spec(block))] == []


def test_readme_field_table_is_kind_fields():
    rows = re.findall(r"^\| `([a-z-]+)` +\| (.+?) +\|$", README, re.M)
    assert {kind: tuple(re.findall(r"`(\w+)`", cells)) for kind, cells in rows} == KIND_FIELDS
