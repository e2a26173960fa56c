"""Command-line front end.

    pilothop run <spec.yaml> [--seed N] [--out DIR] [--jobs N]
    pilothop validate <spec.yaml>

Exit codes: 0 success, 2 usage error (such as ``--jobs 0``, ``--seed -1`` or
an ``--out`` that names a file) or spec parse error (reported with
line/column), 3 invariant violation (reported with the offending field), 4
numeric failure during execution.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .access import load_binomial
from .config import SpecParseError, evaluated_bounds, parse_spec, validate
from .experiments import format_csv, run_experiment

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NUMERIC = 4


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _out_dir(text: str) -> Path:
    """An argparse type: a directory, or a path whose first existing ancestor is one."""
    path = Path(text)
    found = next((p for p in (path, *path.parents) if p.exists()), None)
    if found is not None and not found.is_dir():
        raise argparse.ArgumentTypeError(f"{found} exists and is not a directory")
    return path


def _load_valid(path: str):
    """(spec, EXIT_OK) when the file parses and validates; otherwise (None,
    exit code), with the parse error or every diagnostic on stderr."""
    p = Path(path)
    try:
        if not p.exists():
            raise SpecParseError(f"no such file: {path}")
        spec = parse_spec(p)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    diags = validate(spec)
    for d in diags:
        print(f"invalid: {d}", file=sys.stderr)
    return (None, EXIT_INVALID) if diags else (spec, EXIT_OK)


def _cmd_validate(args) -> int:
    spec, code = _load_valid(args.spec)
    if spec is not None:
        print(f"{args.spec}: OK")
    return code


def _cmd_run(args) -> int:
    spec, code = _load_valid(args.spec)
    if spec is None:
        return code
    if {"R1", "R2"} & evaluated_bounds(spec):
        load_binomial()  # scipy's import belongs to start-up, and a broken scipy fails before any work
    try:
        outputs = run_experiment(spec, seed_override=args.seed, jobs=args.jobs)
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    args.out.mkdir(parents=True, exist_ok=True)
    for suffix, records in outputs.items():
        path = args.out / f"{spec.out_prefix}_{suffix}.csv"
        path.write_text(format_csv(records))
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pilothop",
        description="Random pilot-and-data access: bounds, optimization, and protocol simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment spec and write CSVs")
    run_p.add_argument("spec", help="path to the experiment YAML file")
    run_p.add_argument("--seed", type=_at_least(0), default=None, help="override the system seed")
    run_p.add_argument("--out", type=_out_dir, default=".", help="output directory for CSV files")
    run_p.add_argument("--jobs", type=_at_least(1), default=1, help="parallel workers for sweep points")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check an experiment spec without running it")
    val_p.add_argument("spec", help="path to the experiment YAML file")
    val_p.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
