"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pilothop"


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may guard the numerics
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found


def test_import_and_validate_leave_scipy_stats_out():
    # importing scipy.stats costs about 0.6 s per interpreter; the package needs none of it
    spec = SRC.parent.parent / "specs" / "bound_hierarchy.yaml"
    code = (
        "import sys, pilothop\n"
        "from pilothop.cli import main\n"
        f"rc = main(['validate', {str(spec)!r}])\n"
        "print(rc, 'scipy.stats' in sys.modules)\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"], out.stdout + out.stderr
