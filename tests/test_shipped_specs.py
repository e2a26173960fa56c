"""Byte-for-byte guard on the CSVs of the fast shipped specs.

The files under ``tests/golden/`` were written by ``pilothop run`` on each
spec at its own seed. A refactor that keeps the arithmetic must keep them.
"""

from pathlib import Path

import pytest

from pilothop.cli import main

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
