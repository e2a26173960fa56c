"""Static checks on the package source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pilothop"


def _python(code: str, *paths: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports pilothop from src/ (and from ``paths``)."""
    path = [str(SRC.parent), *map(str, paths), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may guard the numerics
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found


def _module_level(tree):
    """The nodes of a module that run when it is imported: all but function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _imports(nodes, package: str) -> list:
    return [node for node in nodes
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == package for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package]


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def test_no_module_imports_scipy_at_module_level():
    # scipy is imported on first use, by access.load_binomial, never with the package
    trees = _trees()
    found = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in _imports(_module_level(tree), "scipy")]
    anywhere = [node for tree in trees.values() for node in _imports(ast.walk(tree), "scipy")]
    assert anywhere and not found, found


def test_no_module_imports_ctypes():
    # the package leaves memory and threads to numpy: a foreign call through ctypes (an allocator
    # setting, a BLAS thread count) would hold for one entry point and not for library callers
    trees = _trees()
    found = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in _imports(ast.walk(tree), "ctypes")]
    assert len(trees) >= 10 and not found, found


SPECS = sorted((SRC.parent.parent / "specs").glob("*.yaml"))
_SIM_SPEC = "kind: simulate\nsystem: {M: 32, K: 60, tau_u: 40, tau_p: 8, p_a: 0.1, seed: 3}\nn_slots: 20\nout_prefix: sim\n"


def test_import_validate_simulate_and_scaling_leave_scipy_out(tmp_path):
    # scipy's binomial ufuncs cost about 0.02-0.03 s and 5 MB of start-up (all of scipy.special
    # about 0.2 s and 17 MB); only runs that evaluate R1 or R2 load them
    sim = tmp_path / "sim.yaml"
    sim.write_text(_SIM_SPEC)
    ladder = tmp_path / "ladder.yaml"
    ladder.write_text("kind: scaling-verify\nsystem: {seed: 0}\ncase: balanced\n"
                      "ladder: [[100, 100], [400, 400]]\nout_prefix: ladder\n")
    code = (
        "import json, sys, pilothop\n"
        "from pilothop.cli import main\n"
        "seen = [['import', 'scipy' in sys.modules]]\n"
        f"for args in {[['validate', str(p)] for p in SPECS]}:\n"
        "    seen.append([main(args), 'scipy' in sys.modules])\n"
        f"for spec in {[str(sim), str(ladder)]}:\n"
        f"    seen.append([main(['run', spec, '--out', {str(tmp_path)!r}]), 'scipy' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    out = _python(code)
    assert json.loads(out.stdout.splitlines()[-1]) == [["import", False]] + [[0, False]] * (len(SPECS) + 2), \
        out.stdout + out.stderr
    assert len(SPECS) >= 4 and (tmp_path / "sim_simulate.csv").exists() and (tmp_path / "ladder_scaling.csv").exists()


def test_runs_leave_numpy_ma_out(tmp_path):
    # importing numpy.ma takes 14-18 ms of every start-up; np.unique, np.setdiff1d and
    # np.isin's sort path import it on their first call, so the package calls none of them
    sim = tmp_path / "sim.yaml"
    sim.write_text(_SIM_SPEC)
    runs = [["run", str(spec), "--out", str(tmp_path), "--jobs", "1"] for spec in [*SPECS, sim]]
    code = (
        "import json, sys\n"
        "from pilothop.cli import main\n"
        f"print(json.dumps([[main(args) for args in {runs!r}], 'numpy.ma' in sys.modules]))\n"
    )
    out = _python(code)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0] * len(runs), False], out.stdout + out.stderr
    assert len(SPECS) >= 4 and (tmp_path / "sim_simulate.csv").exists()


def test_import_validate_and_run_leave_scipy_stats_and_optimize_out(tmp_path):
    # importing scipy.stats costs about 0.6 s per interpreter and scipy.optimize about
    # 0.24 s; the package needs neither, Rh0 included (s0 is a literal)
    spec = SRC.parent.parent / "specs" / "bound_hierarchy.yaml"
    opt = tmp_path / "opt.yaml"
    opt.write_text("kind: optimize\nsystem: {M: 32, K: 100, tau_u: 30, seed: 2}\n"
                   "methods: [Rh0, Rh-1D]\nout_prefix: opt\n")
    code = (
        "import json, sys, pilothop\n"
        "from pilothop.cli import main\n"
        "def loaded():\n"
        "    return [m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules]\n"
        "seen = [loaded()]\n"
        f"seen.append([main(['validate', {str(spec)!r}]), loaded()])\n"
        f"seen.append([main(['run', {str(opt)!r}, '--out', {str(tmp_path)!r}]), loaded()])\n"
        "print(json.dumps(seen))\n"
    )
    out = _python(code)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], [0, []], [0, []]], out.stdout + out.stderr
    assert (tmp_path / "opt_optimize.csv").read_text().count("\n") == 3


_R1_SPEC = ("kind: bound-eval\nsystem: {M: 32, K: 60, tau_u: 40, tau_p: 8, p_a: 0.1, seed: 3}\n"
            "bounds: [R1]\nout_prefix: r1\n")
# scipy.special's package __init__ and the array-API layer it loads, which the binomial ufuncs do without
_ARRAY_API_LAYER = ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")


def test_r1_run_loads_the_binomial_ufuncs_without_scipy_special_package(tmp_path):
    # start-up loads scipy.special._ufuncs alone; a later import scipy.special gives the real
    # package, which exports the very ufunc objects the run took its masses from
    spec = tmp_path / "r1.yaml"
    spec.write_text(_R1_SPEC)
    code = (
        "import json, sys\n"
        "from pilothop import access, cli\n"
        "seen, run_experiment = {}, cli.run_experiment\n"
        "def watched(*args, **kwargs):\n"
        f"    seen['start-up'] = [m for m in {_ARRAY_API_LAYER!r} if m in sys.modules]\n"
        "    seen['ufuncs'] = 'scipy.special._ufuncs' in sys.modules\n"
        "    return run_experiment(*args, **kwargs)\n"
        "cli.run_experiment = watched\n"
        f"seen['rc'] = cli.main(['run', {str(spec)!r}, '--out', {str(tmp_path)!r}])\n"
        "import scipy.special\n"
        "gammaln, binom_pmf = access.load_binomial()\n"
        "seen['real'] = hasattr(scipy.special, '__file__')\n"
        "seen['same'] = [scipy.special.gammaln is gammaln, scipy.special._ufuncs._binom_pmf is binom_pmf]\n"
        "print(json.dumps(seen))\n"
    )
    out = _python(code)
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "start-up": [], "ufuncs": True, "rc": 0, "real": True, "same": [True, True]}, out.stdout + out.stderr
    assert (tmp_path / "r1_bounds.csv").exists()


def test_load_binomial_takes_the_ufuncs_of_a_loaded_scipy_special():
    code = (
        "import scipy.special\n"
        "from pilothop.access import load_binomial\n"
        "gammaln, binom_pmf = load_binomial()\n"
        "print(gammaln is scipy.special.gammaln, binom_pmf is scipy.special._ufuncs._binom_pmf)\n"
    )
    out = _python(code)
    assert out.stdout.split() == ["True", "True"], out.stdout + out.stderr


def test_a_failed_ufunc_import_propagates_and_leaves_no_bare_package():
    # an ImportError inside the bare import reaches the caller, and the stand-in package is
    # gone, so the next call (load_binomial caches no error) imports afresh
    code = (
        "import json, sys\n"
        "from pilothop.access import load_binomial\n"
        "class Broken:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy.special._ufuncs':\n"
        "            raise ImportError('broken ufuncs')\n"
        "seen = []\n"
        "sys.meta_path.insert(0, Broken())\n"
        "try:\n"
        "    load_binomial()\n"
        "except ImportError as exc:\n"
        "    seen.append(str(exc))\n"
        "seen.append('scipy.special' in sys.modules)\n"
        "del sys.meta_path[0]\n"
        "seen.append(load_binomial()[1](3, 10, 0.5))\n"
        "seen.append('scipy.special' in sys.modules)\n"
        "print(json.dumps(seen))\n"
    )
    out = _python(code)
    assert json.loads(out.stdout.splitlines()[-1]) == ["broken ufuncs", False, 120 / 1024, False], \
        out.stdout + out.stderr


@pytest.mark.skipif(sys.platform == "win32", reason="the resource module, which counts page faults, is POSIX-only")
@pytest.mark.parametrize("through", ["cli", "experiments"], ids=["cli", "library"])
def test_a_slot_run_takes_few_page_faults(tmp_path, through):
    # run_frame takes its blocks' arrays once per frame, so only a frame's first block maps
    # fresh pages, and `pilothop run` and a library caller, which never imports pilothop.cli,
    # fault alike. With arrays allocated per block this run took over 58,000 faults either way
    spec = SRC.parent.parent / "specs" / "protocol_validation.yaml"
    call = {
        "cli": f"cli.main(['run', {str(spec)!r}, '--out', {str(tmp_path)!r}, '--seed', '905'])",
        "experiments": f"sorted(experiments.run_experiment(parse_spec(Path({str(spec)!r})), seed_override=905))",
    }[through]
    code = (
        "import json, resource, sys\n"
        "from pathlib import Path\n"
        f"from pilothop import {through}\n"
        "from pilothop.config import parse_spec\n"
        "from pilothop.experiments import run_experiment\n"
        "faults = []\n"
        "def counted(*args, **kwargs):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    out = run_experiment(*args, **kwargs)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "    return out\n"
        f"{through}.run_experiment = counted\n"
        f"result = {call}\n"
        "print(json.dumps([result, faults, 'pilothop.cli' in sys.modules]))\n"
    )
    out = _python(code)
    result, faults, cli_loaded = json.loads(out.stdout.splitlines()[-1])
    assert result == {"cli": 0, "experiments": ["compare"]}[through], out.stdout + out.stderr
    assert cli_loaded == (through == "cli") and len(faults) == 1 and faults[0] < 5000, faults


def test_import_cli_leaves_multiprocessing_out():
    # the process pool is imported only for --jobs > 1; loading it slows every run's start-up
    code = "import sys, pilothop.cli\nprint(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    out = _python(code)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def _tracer_pinned():
    """Names perfbench/tracing.py reaches: its LAYERS, and what _collider_columns builds windows through."""
    import importlib.util

    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wanted = [(mod, name) for mod, names in tracing.LAYERS.items() for name in names]
    return wanted + [("access", "ActivationLaw"), ("access", "CollisionLaw"), ("access", "truncate_support")]


# Public names kept though no package code reads them, each with its reason
KEPT_UNREAD = {
    "estimate_sum_power": "the receiver's sum-power estimator, for the receiver counters of ROADMAP item 1",
    "sinr1": "the per-scenario SINR that acceptance criterion 3 tests in the package",
    "estimation_variances": "the MMSE variances that acceptance criterion 9 tests in the package",
}


def unread_public_names() -> list[str]:
    """Top-level public defs/classes no package code reads (as a name, attribute or import), less the kept ones."""
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    kept = {name for _, name in _tracer_pinned()} | set(KEPT_UNREAD)
    return sorted(f"{mod}.{name}" for name, mod in defined.items() if name not in read | kept)


# Defaulted parameters of public functions that no package call sets, each with its reason
KEPT_DEFAULTS = {
    "access.truncate_support.eps_tail": "perfbench/tracing.py builds collision windows at each run's own eps_tail",
    "cli.main.argv": "the console entry point, called with none and reading sys.argv",
}


# Defaulted parameters of public functions that every package call sets, each with its reason
KEPT_CALLER_DEFAULTS = {
    "experiments.run_experiment.seed_override": "library callers run a spec at its own seed; the CLI passes --seed",
    "experiments.run_experiment.jobs": "library callers run serially; the CLI passes --jobs",
    "protocol.run_frame.frame_index": "README's quick tour runs one frame, frame 0; experiments number theirs",
}


def _default_uses() -> dict:
    """module.function.parameter -> (calls, setting calls) for each parameter with a default, of a
    public top-level function of src/: the calls of the function by name in src/, and those of
    them that set the parameter by keyword or by position."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    uses = {}
    for mod, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            a = fn.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)]
            defaulted = positional[len(positional) - len(a.defaults):] + \
                [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for param in defaulted:
                at = positional.index(param) if param in positional else None
                setting = [
                    any(k.arg in (param, None) for k in call.keywords)
                    or at is not None and any(i <= at and isinstance(arg, ast.Starred) or i == at
                                              for i, arg in enumerate(call.args))
                    for call in calls.get(fn.name, [])
                ]
                uses[f"{mod}.{fn.name}.{param}"] = (len(setting), sum(setting))
    return uses


def unset_defaults() -> list[str]:
    """The defaulted parameters of :func:`_default_uses` that no call in src/ sets."""
    return sorted(name for name, (_, setting) in _default_uses().items() if not setting)


def always_set_defaults() -> list[str]:
    """The defaulted parameters of :func:`_default_uses` that every call in src/ sets."""
    return sorted(name for name, (n, setting) in _default_uses().items() if n and setting == n)


def test_every_default_is_set_by_some_package_call():
    # a parameter that only tests set is a test-only switch: the package should
    # not carry it, and its tests should reach the behaviour another way
    assert unset_defaults() == sorted(KEPT_DEFAULTS)


def test_no_default_is_taken_only_by_tests():
    # a default that every package call overrides is a call shape the package never runs:
    # only tests take it, unless callers outside the package are meant to
    assert always_set_defaults() == sorted(KEPT_CALLER_DEFAULTS)


def test_perfbench_tracer_names_resolve():
    # perfbench/run.py --trace 1 wraps these by name; a deleted name would break it only there
    import importlib

    wanted = _tracer_pinned()
    missing = [f"{mod}.{name}" for mod, name in wanted
               if not hasattr(importlib.import_module(f"pilothop.{mod}"), name)]
    assert len(wanted) > 3 and not missing, missing


def test_every_public_name_is_read_by_the_package():
    # public surface that nothing in the package reads belongs in the tests (tests/reference.py) or nowhere
    unread = unread_public_names()
    assert SRC.is_dir() and not unread, unread


def test_perfbench_tracer_runs_a_simulate_spec(tmp_path):
    # the tracer's observers read SlotOutcome and IdentificationReport fields; a dropped
    # field would break only a traced benchmark run
    spec = tmp_path / "sim.yaml"
    spec.write_text("kind: simulate\nsystem: {M: 32, K: 60, tau_u: 40, tau_p: 8, p_a: 0.1, seed: 3}\n"
                    "n_slots: 20\nn_frames: 2\nout_prefix: sim\n")
    code = (
        "import json, math\n"
        "from tracing import Tracer\n"
        "from pilothop.access import ActivationLaw, sample_active_set\n"
        "from pilothop.cli import main\n"
        "from pilothop.experiments import _frame_rng\n"
        "from pilothop.protocol import SLOT_ENTRIES\n"
        "tracer = Tracer().install()\n"
        f"rc = main(['run', {str(spec)!r}, '--out', {str(tmp_path)!r}])\n"
        f"metrics = tracer.finish({str(tmp_path / 'spans.json')!r})\n"
        "sizes = [sample_active_set(ActivationLaw(60, 0.1), _frame_rng(3, i)).size for i in range(2)]\n"
        "blocks = sum(math.ceil(20 / max(1, SLOT_ENTRIES // ((k + 8) * (min(k, 32) + 1)))) for k in sizes)\n"
        "print(json.dumps([rc, metrics, blocks]))\n"
    )
    out = _python(code, SRC.parent.parent / "perfbench")
    assert out.returncode == 0, out.stderr
    rc, metrics, blocks = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0
    # simulate_slot takes a block of slots per call: each frame's 20 slots in blocks of SLOT_ENTRIES entries
    assert metrics["protocol.simulate_slot.calls"] == blocks >= 2
    for name in ("simulate_slot.missed_pilots", "simulate_slot.false_pilots",
                 "match_patterns.missed_devices", "match_patterns.false_devices"):
        assert isinstance(metrics[f"protocol.{name}"], int), name


def test_perfbench_tracer_counts_each_slots_missed_and_false_pilots(tmp_path):
    # a block's SlotOutcome holds flat slot * tau_p + pilot ids, so the tracer's
    # per-call set differences count the (slot, pilot) misses and false alarms
    # exactly: they equal a recount over the frame replayed slot by slot, once the
    # replay is checked against the frame; two antennas and weak gains give both
    code = (
        "import json\n"
        "import numpy as np\n"
        "from tracing import Tracer\n"
        "from pilothop import protocol\n"
        "from pilothop.channels import UniformPowerError\n"
        "from pilothop.config import SystemConfig\n"
        "from reference import frame_outputs, replay_frame\n"
        "tracer = Tracer().install()\n"
        "maps, match = [], protocol.match_patterns\n"
        "protocol.match_patterns = lambda detected, *args: maps.append(detected.copy()) or match(detected, *args)\n"
        "cfg = SystemConfig(M=2, K=60, tau_u=40, tau_p=20, p_a=0.1, model=UniformPowerError(0.3, 0.5), seed=3)\n"
        "fr = protocol.run_frame(cfg, 8000, np.random.default_rng(5))\n"
        f"metrics = tracer.finish({str(tmp_path / 'spans.json')!r})\n"
        "active, slots = replay_frame(cfg, 8000, np.random.default_rng(5))\n"
        "rates, detected = frame_outputs(cfg, slots)\n"
        "same = [np.array_equal(fr.active, active), np.array_equal(fr.rates, rates), np.array_equal(maps[0], detected)]\n"
        "missed = sum(np.setdiff1d(s.pilot_of_device, s.detected).size for s in slots)\n"
        "false = sum(np.setdiff1d(s.detected, s.pilot_of_device).size for s in slots)\n"
        "print(json.dumps([same, metrics['protocol.simulate_slot.missed_pilots'],\n"
        "                  metrics['protocol.simulate_slot.false_pilots'], missed, false,\n"
        "                  metrics['protocol.simulate_slot.calls']]))\n"
    )
    out = _python(code, SRC.parent.parent / "perfbench", Path(__file__).resolve().parent)
    assert out.returncode == 0, out.stderr
    same, traced_missed, traced_false, missed, false, calls = json.loads(out.stdout.splitlines()[-1])
    assert same == [True, True, True]
    assert 1 < calls < 8000 and missed > 0 and false > 0
    assert (traced_missed, traced_false) == (missed, false)


def test_no_function_takes_model_or_mc_beside_cfg():
    # a SystemConfig carries its own gain model and Monte Carlo settings; a second copy could contradict it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
                if "cfg" in names and names & {"model", "mc"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert SRC.is_dir() and not found, found


def _readers(names) -> dict:
    """For each of ``names``, the (file, top-level function) scopes of src/ that read it as a name or attribute."""
    found = {name: set() for name in names}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope[1] == "<module>":
            scope = (scope[0], node.name)
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in found:
            found[name].add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.name, "<module>"))
    return found


def test_every_bound_evaluation_takes_one_path():
    # a point is the 1x1 case of the grid: the R1/R2 row kernel and the R3/Ra stage kernel
    # each have one reader, bounds._cells, so a second evaluation path cannot grow back unnoticed;
    # the F-row kernel is read by the rows and by R1-opt's ceiling alone
    assert _readers(["_averaged_row", "_analytic_stage", "_f_row_sums"]) == {
        "_averaged_row": {("bounds.py", "_cells")},
        "_analytic_stage": {("bounds.py", "_cells")},
        "_f_row_sums": {("bounds.py", "_averaged_row"), ("bounds.py", "r1_ceiling")},
    }


def test_every_gain_expectation_takes_one_rule():
    # the Gauss rule is read by the two expectations and by solve_ab's objective, whose gemv
    # over the nodes is the one standing exception; every row of integrands goes through
    # expect_rows, so a third private path over the nodes cannot grow back unnoticed
    assert _readers(["beta_nodes", "expect_rows"]) == {
        "beta_nodes": {("channels.py", "expect_beta"), ("channels.py", "expect_rows"), ("scaling.py", "ab_objective")},
        "expect_rows": {("bounds.py", "_analytic_stage"), ("optimize.py", "_scan_then_golden")},
    }


def _calls_in(path: Path, function: str, callee: str) -> int:
    """Calls of ``callee`` by name inside the top-level function ``function`` of ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (body,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == callee
               for node in ast.walk(body))


def test_r1_ceiling_has_one_reader_and_one_window_call_per_row():
    # the ceiling is R1-opt's pruning alone (the F-row kernel's readers are pinned above);
    # each row's collision windows, and the masses of its tail terms, come from the one
    # window call of its kernel call
    assert _readers(["r1_ceiling"]) == {"r1_ceiling": {("optimize.py", "_r1_stage")}}
    assert _calls_in(SRC / "bounds.py", "_f_row_sums", "binom_windows") == 1
    assert _calls_in(SRC / "bounds.py", "r1_ceiling", "binom_windows") == 0


def test_r1_r2_bits_take_no_blas():
    # R1 and R2 values are sums the package orders itself: the functions on their path take
    # no matrix product, whose summation order (and so last bits) the loaded BLAS would set
    tree = ast.parse((SRC / "bounds.py").read_text())
    path = {"_f_row_sums", "_collider_sum", "_averaged_row", "_prefix_sums", "_activation_terms"}
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in path:
            path.remove(node.name)
            for sub in ast.walk(node):
                if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
                    found.append(f"{node.name}:{sub.lineno} @")
                elif isinstance(sub, ast.Attribute) and sub.attr in {"dot", "matmul", "inner", "tensordot"}:
                    found.append(f"{node.name}:{sub.lineno} {sub.attr}")
    assert not path and not found, (path, found)
