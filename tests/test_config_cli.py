import math
from pathlib import Path

import pytest

from pilothop import cli
from pilothop.cli import main
from pilothop.config import (
    SpecParseError,
    SystemConfig,
    build_system,
    parse_model,
    parse_spec,
    validate,
)
from pilothop.bounds import bound_at
from pilothop.channels import LogNormalShadowing, RingPathLoss, UniformPowerError
from pilothop.optimize import optimize
from pilothop.experiments import CSV_HEADER, Record, format_csv, point_seed, run_experiment


def test_parse_model_defaults_and_tags():
    assert parse_model(None) == UniformPowerError(10.0, 0.0)
    assert parse_model({"type": "lognormal", "sigma_v2": 0.5}) == LogNormalShadowing(10.0, 0.5)
    assert parse_model({"type": "pathloss", "alpha": 0.25}) == RingPathLoss(10.0, 0.25)
    with pytest.raises(ValueError):
        parse_model({"type": "rayleigh"})
    with pytest.raises(ValueError):
        parse_model({"type": "uniform", "beta": 3})


def test_build_system_defaults():
    cfg, diags = build_system({"M": 100})
    assert diags == []
    assert cfg.K == 800 and cfg.model.delta_bar == 10.0


def test_build_system_diagnostics_name_fields():
    cfg, diags = build_system({"M": 100, "tau_u": 50, "tau_p": 70})
    assert cfg is None
    assert any(d.field == "system.tau_p" and "tau_u" in d.message for d in diags)
    cfg, diags = build_system({"M": 100, "p_a": 1.5})
    assert any(d.field == "system.p_a" for d in diags)
    cfg, diags = build_system({"K": 800})
    assert any(d.field == "system.M" for d in diags)


def test_system_config_invariants():
    with pytest.raises(ValueError):
        SystemConfig(M=1)
    with pytest.raises(ValueError):
        SystemConfig(M=100, tau_u=50, tau_p=51)
    with pytest.raises(ValueError):
        SystemConfig(M=100, p_a=-0.1)
    with pytest.raises(ValueError, match="tau_p"):
        SystemConfig(M=100, tau_p=33.5)


def test_build_system_reports_every_violation():
    cfg, diags = build_system({"M": 1, "K": 0, "tau_p": 5.5, "p_a": "x", "seed": -1})
    assert cfg is None
    assert [d.field for d in diags] == ["system.M", "system.K", "system.tau_p", "system.p_a", "system.seed"]


def test_parse_spec_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: sweep\nmethods: [R1-opt\n")
    with pytest.raises(SpecParseError) as err:
        parse_spec(bad)
    assert err.value.line is not None and err.value.column is not None


def test_parse_spec_rejects_unknown_keys():
    with pytest.raises(SpecParseError):
        parse_spec("kind: sweep\nbogus: 1\n")
    with pytest.raises(SpecParseError):
        parse_spec("methods: [Rh0]\n")


@pytest.mark.parametrize("body", [
    "kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {axis: M, values: [30]}\nsweep_axis: tau_u\n",
    "kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep_values: [60]\n",
    "kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {axis: tau_u, values: [60], step: 3}\n",
], ids=["sweep_axis-beside-sweep", "sweep_values", "sweep-step"])
def test_parse_spec_takes_sweep_only_as_axis_and_values(tmp_path, body):
    with pytest.raises(SpecParseError):
        parse_spec(body)
    assert main(["validate", _write(tmp_path, "sweep.yaml", body)]) == 2


def test_validate_catches_problems():
    spec = parse_spec("kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {axis: tau_u, values: []}\n")
    diags = validate(spec)
    assert any(d.field == "sweep.values" for d in diags)
    spec = parse_spec("kind: optimize\nsystem: {M: 100}\nmethods: [R9]\n")
    assert any(d.field == "methods" for d in validate(spec))
    spec = parse_spec("kind: optimize\nsystem: {M: 100, K: 800}\nmethods: [Rh0]\n")
    assert validate(spec) == []


def test_validate_reports_a_scalar_list_field_once():
    # a string is not read letter by letter, and no "empty" diagnostic follows
    for body, name, got in (("kind: optimize\nsystem: {M: 100}\nmethods: Rh0\n", "methods", "'Rh0'"),
                            ("kind: sweep\nsystem: {M: 100}\nmethods: 5\nsweep: {values: [60]}\n", "methods", "5"),
                            ("kind: scaling-verify\nsystem: {M: 100}\nladder: 5\n", "ladder", "5")):
        assert [str(d) for d in validate(parse_spec(body))] == [f"{name}: must be a list (got {got})"]


def test_point_seed_is_stable():
    assert point_seed(42, 0) == point_seed(42, 0)
    assert point_seed(42, 0) != point_seed(42, 1)


def test_format_csv_nine_significant_digits():
    rec = Record(60, "Rh0", 1.2345678949, 20, 29.1548152064, 0.00123456789)
    text = format_csv([rec])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "60,Rh0,1.23456789,20,29.1548152,0.00123456789"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_validate_ok(tmp_path, capsys):
    spec = _write(tmp_path, "ok.yaml", "kind: optimize\nsystem: {M: 100}\nmethods: [Rh0]\n")
    assert main(["validate", spec]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    spec = _write(tmp_path, "bad.yaml", "kind: [unclosed\n")
    assert main(["validate", spec]) == 2
    assert main(["run", spec]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 2


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_cli_rejects_bad_jobs_exit_2(tmp_path, capsys, jobs):
    spec = _write(tmp_path, "ok.yaml", "kind: optimize\nsystem: {M: 100}\nmethods: [Rh0]\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", spec, "--out", str(tmp_path), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_rejects_negative_seed_exit_2(tmp_path, capsys):
    spec = _write(tmp_path, "ok.yaml", "kind: optimize\nsystem: {M: 100}\nmethods: [Rh0]\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", spec, "--out", str(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_cli_rejects_out_file_exit_2(tmp_path, capsys, monkeypatch, under):
    # refused before the experiment runs
    spec = _write(tmp_path, "ok.yaml", "kind: optimize\nsystem: {M: 100}\nmethods: [Rh0]\n")
    taken = _write(tmp_path, "taken.csv", "")
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: ran.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["run", spec, "--out", str(Path(taken) / "sub") if under else taken])
    assert exc.value.code == 2 and not ran
    assert "--out" in capsys.readouterr().err


def test_cli_invalid_spec_exit_3(tmp_path, capsys):
    spec = _write(
        tmp_path, "inv.yaml",
        "kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {axis: tau_u, values: []}\n",
    )
    assert main(["run", spec]) == 3
    assert "sweep.values" in capsys.readouterr().err


_MC_EVAL = "kind: bound-eval\nsystem: {{M: 100, tau_p: 33, p_a: 0.0375, seed: 1, mc: {}}}\n"


@pytest.mark.parametrize("body, field", [
    ("kind: optimize\nsystem: {M: abc}\nmethods: [Rh0]\n", "system.M"),
    ("kind: optimize\nsystem: {M: [1, 2]}\nmethods: [Rh0]\n", "system.M"),
    ("kind: optimize\nsystem: {M: 100, K: 800.0}\nmethods: [Rh0]\n", "system.K"),
    ("kind: optimize\nsystem: {M: 100, tau_u: long}\nmethods: [Rh0]\n", "system.tau_u"),
    ("kind: optimize\nsystem: {M: 100, seed: 1.5}\nmethods: [Rh0]\n", "system.seed"),
    ("kind: optimize\nsystem: {M: 100, mc: {n_beta_samples: 2.5}}\nmethods: [R1-opt]\n", "system.mc.n_beta_samples"),
    (_MC_EVAL.format("{n_beta_samples: true}"), "system.mc.n_beta_samples"),
    (_MC_EVAL.format("{eps_tail: abc}"), "system.mc.eps_tail"),
    (_MC_EVAL.format("[1, 2]"), "system.mc"),
    (_MC_EVAL.format("{n_samples: 10}"), "system.mc.n_samples"),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: x, p_a: 0.0375}\n", "system.tau_p"),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: 33.5, p_a: 0.0375}\n", "system.tau_p"),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: 33, p_a: high}\n", "system.p_a"),
    ("kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {values: [a]}\n", "sweep.values"),
    ("kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {axis: M, values: [64.5]}\n", "sweep.values"),
    ("kind: sweep\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {axis: K, values: 800}\n", "sweep.values"),
    ("kind: simulate\nsystem: {M: 64, tau_p: 12, p_a: 0.1}\nn_slots: lots\n", "n_slots"),
    ("kind: compare\nsystem: {M: 64}\nmethods: [Rh0]\nn_frames: 2.5\n", "n_frames"),
    ("kind: optimize\nsystem: {M: 100, model: {delta_bar: abc}}\nmethods: [Rh0]\n", "system.model: delta_bar"),
    ("kind: optimize\nsystem: {M: 100, model: {type: pathloss, alpha: [1]}}\nmethods: [Rh0]\n",
     "system.model: alpha"),
    ("kind: optimize\nsystem: {M: 100, model: {alpha: true}}\nmethods: [Rh0]\n", "system.model: alpha"),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: 33, p_a: 0.0375, model: {type: pathloss, alpha: 0.25, "
     "pathloss_exp: 0.5}}\nbounds: [R3]\n", "system.model"),
    ("kind: optimize\nsystem: {M: 100, model: {type: pathloss, alpha: 0.25, d0: 200}}\nmethods: [Rh0]\n",
     "system.model"),
    ("kind: sweep\nsystem: {M: 100}\nmethods: [Ra-1D, Rh0]\nsweep: {axis: tau_u, values: [2, 60]}\n",
     "sweep.values"),
    ("kind: optimize\nsystem: {M: 100, tau_u: 2}\nmethods: [Rh0]\n", "system.tau_u"),
    ("kind: scaling-verify\nsystem: {M: 100}\ncase: coherence-limited\nladder: [[100, 100]]\n", "case"),
    ("kind: optimize\nsystem: {M: 100}\nmethods: 5\n", "methods"),
    ("kind: optimize\nsystem: {M: 100}\nmethods: Rh0\n", "methods"),
    ("kind: compare\nsystem: {M: 64}\nmethods: {Rh0: 1}\n", "methods"),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: 33, p_a: 0.0375}\nbounds: 5\n", "bounds"),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: 33, p_a: 0.0375}\nbounds: R1\n", "bounds"),
    ("kind: scaling-verify\nsystem: {M: 100}\nladder: 5\n", "ladder"),
    ("kind: scaling-verify\nsystem: {M: 100}\nladder: [[1, 100]]\n", "ladder[0]"),
    ("kind: scaling-verify\nsystem: {M: 100}\nladder: [[100, 100], [0, 0]]\n", "ladder[1]"),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: 33, p_a: 0.0375}\nbounds: []\n", "bounds"),
    ("kind: optimize\nsystem: {M: 32, K: 100, tau_u: 30}\nmethods: [Rh0]\nout_prefix: ../../x\n", "out_prefix"),
    ("kind: optimize\nsystem: {M: 32, K: 100, tau_u: 30}\nmethods: [Rh0]\nout_prefix: [a]\n", "out_prefix"),
    ("kind: simulate\nsystem: {M: 32, K: 60, tau_p: 8, p_a: 0.1}\nn_slots: 2\nout_prefix: {a: 1}\n", "out_prefix"),
    ("kind: optimize\nsystem: {M: 32, K: 100, tau_u: 30}\nmethods: [Rh0]\nout_prefix: ''\n", "out_prefix"),
    ("kind: optimize\nsystem: {M: 32, K: 100, tau_u: 30}\nmethods: [Rh0]\nevaluate_with: self\n", "evaluate_with"),
], ids=["M-text", "M-list", "K-float", "tau_u-text", "seed-fraction", "mc-samples-fraction",
        "mc-samples-bool", "mc-eps-text", "mc-list", "mc-unknown-key",
        "tau_p-text", "tau_p-fraction", "p_a-text", "sweep-text", "sweep-fraction", "sweep-scalar",
        "n_slots-text", "n_frames-fraction", "model-text", "model-list", "model-bool",
        "model-pathloss-exp", "model-d0",
        "rh0-sweep-short-slot", "rh0-short-slot", "case-coherence-limited",
        "methods-scalar", "methods-text", "methods-mapping", "bounds-scalar", "bounds-text", "ladder-scalar",
        "ladder-one-antenna", "ladder-zero-rung", "bounds-empty",
        "out_prefix-parent-path", "out_prefix-list", "out_prefix-mapping", "out_prefix-empty",
        "evaluate_with-self"])
def test_cli_malformed_spec_exit_3(tmp_path, capsys, body, field):
    spec = _write(tmp_path, "bad.yaml", body)
    assert main(["validate", spec]) == 3
    assert main(["run", spec, "--out", str(tmp_path)]) == 3
    assert f"invalid: {field}: " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("model, name", [
    (UniformPowerError, "delta_bar"),
    (LogNormalShadowing, "delta_bar"),
    (LogNormalShadowing, "sigma_v2"),
    (RingPathLoss, "delta_bar"),
], ids=["uniform-delta_bar", "lognormal-delta_bar", "lognormal-sigma_v2", "pathloss-delta_bar"])
@pytest.mark.parametrize("text, value", [(".nan", math.nan), (".inf", math.inf)], ids=["nan", "inf"])
def test_non_finite_gain_law_parameter_exit_3(tmp_path, capsys, model, name, text, value):
    # a NaN or infinite gain law is refused: it once validated, and then simulate wrote a
    # rate of 0 and bound-eval failed on a non-positive beta_0 after a run of warnings
    tag = {UniformPowerError: "uniform", LogNormalShadowing: "lognormal", RingPathLoss: "pathloss"}[model]
    spec = _write(tmp_path, "bad.yaml", "kind: simulate\nsystem: {M: 32, K: 60, tau_p: 8, p_a: 0.1, "
                  f"model: {{type: {tag}, {name}: {text}}}}}\nn_slots: 2\n")
    assert main(["validate", spec]) == 3
    assert main(["run", spec, "--out", str(tmp_path)]) == 3
    assert f"invalid: system.model: {name} " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    with pytest.raises(ValueError, match=name):
        model(**{name: value})


@pytest.mark.parametrize("body, kind, unread", [
    ("kind: simulate\nsystem: {M: 64, tau_p: 12, p_a: 0.1}\nn_slots: 2\n"
     "evaluate_with: R3\nmethods: [Rh0]\nladder: [[1, 2]]\n", "simulate", ["evaluate_with", "methods", "ladder"]),
    ("kind: bound-eval\nsystem: {M: 100, tau_p: 33, p_a: 0.0375}\nevaluate_with: Ra\nmethods: [Rh0]\n",
     "bound-eval", ["evaluate_with", "methods"]),
    ("kind: optimize\nsystem: {M: 100}\nmethods: [Rh0]\nsweep: {axis: tau_u, values: [60]}\n", "optimize", ["sweep"]),
], ids=["simulate", "bound-eval", "optimize"])
def test_cli_field_the_kind_does_not_read_exit_3(tmp_path, capsys, body, kind, unread):
    # a field the run would ignore is refused, not dropped without a word
    spec = _write(tmp_path, "unread.yaml", body)
    assert main(["validate", spec]) == 3
    assert main(["run", spec, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert all(f"invalid: {name}: not read by kind {kind}\n" in err for name in unread), err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("body, twin", [
    ("kind: scaling-verify\nsystem: {seed: 0}\nladder: [[1000, 100]]\nout_prefix: x\n",
     "kind: scaling-verify\nsystem: {M: 100, seed: 0}\nladder: [[1000, 100]]\nout_prefix: x\n"),
    ("kind: sweep\nsystem: {M: 100, tau_u: 30, tau_p: 20}\nmethods: [Rh0]\nsweep: {axis: tau_u, values: [10]}\n"
     "evaluate_with: Ra\nout_prefix: x\n",
     "kind: sweep\nsystem: {M: 100, tau_u: 30}\nmethods: [Rh0]\nsweep: {axis: tau_u, values: [10]}\n"
     "evaluate_with: Ra\nout_prefix: x\n"),
], ids=["scaling-verify-without-M", "sweep-past-tau_p"])
def test_cli_system_field_the_kind_does_not_read_is_not_checked(tmp_path, capsys, body, twin):
    # scaling-verify takes M from each rung, and a sweep chooses tau_p and p_a itself
    csvs = []
    for name, text in (("given", body), ("twin", twin)):
        spec = _write(tmp_path, f"{name}.yaml", text)
        assert main(["validate", spec]) == 0
        assert main(["run", spec, "--out", str(tmp_path / name)]) == 0
        csvs.append({path.name: path.read_bytes() for path in (tmp_path / name).glob("*.csv")})
    assert csvs[0] == csvs[1] and csvs[0]
    assert "invalid" not in capsys.readouterr().err


def test_cli_rejects_mc_seed(tmp_path, capsys):
    # the Monte Carlo seed always follows system.seed (and --seed)
    spec = _write(
        tmp_path, "mc.yaml",
        "kind: bound-eval\nsystem: {M: 100, tau_p: 33, p_a: 0.0375, seed: 1, mc: {seed: 3}}\n",
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "invalid: system.mc.seed: " in err and "system.seed" in err


def test_cli_numeric_failure_exit_4(tmp_path, capsys):
    # validates cleanly but the averaged-count bound needs p_a*K >= 1
    spec = _write(
        tmp_path, "num.yaml",
        "kind: bound-eval\nsystem: {M: 100, K: 800, tau_u: 100, tau_p: 33, p_a: 0.0001}\nbounds: [R3]\n",
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_cli_run_bound_eval(tmp_path, capsys):
    spec = _write(
        tmp_path, "be.yaml",
        "kind: bound-eval\nsystem: {M: 100, K: 800, tau_u: 100, tau_p: 33, p_a: 0.0375}\n"
        "bounds: [R1, R2, R3, Ra]\nout_prefix: be\n",
    )
    assert main(["run", spec, "--out", str(tmp_path / "out")]) == 0
    csv = (tmp_path / "out" / "be_bounds.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    rates = {ln.split(",")[1]: float(ln.split(",")[2]) for ln in lines[1:]}
    assert rates["R2"] <= rates["R1"] + 1e-9
    assert rates["R3"] <= rates["R1"] + 1e-9
    assert all(v >= 0 for v in rates.values())


def test_cli_reads_exponent_floats(tmp_path, capsys):
    # YAML 1.1 reads a float with an exponent and no dot as a string; specs read it as YAML 1.2 does
    text = ("kind: bound-eval\nsystem: {M: 100, K: 100000, tau_p: 33, p_a: 3e-4, mc: {eps_tail: 1e-9}}\n"
            "out_prefix: exp\n")
    system = parse_spec(text).system
    assert (system["p_a"], system["mc"]["eps_tail"]) == (3e-4, 1e-9)
    spec = _write(tmp_path, "exp.yaml", text)
    assert main(["validate", spec]) == 0
    assert main(["run", spec, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "exp_bounds.csv").read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("100,R1,") and float(lines[1].split(",")[2]) > 0


def test_cli_seed_override_changes_output(tmp_path):
    text = (
        "kind: bound-eval\nsystem: {M: 100, K: 800, tau_u: 100, tau_p: 33, p_a: 0.0375,\n"
        "  model: {type: uniform, alpha: 0.5}}\nbounds: [R1]\nout_prefix: sd\n"
    )
    spec = _write(tmp_path, "sd.yaml", text)
    assert main(["run", spec, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", spec, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    assert main(["run", spec, "--out", str(tmp_path / "c"), "--seed", "1"]) == 0
    a = (tmp_path / "a" / "sd_bounds.csv").read_text()
    b = (tmp_path / "b" / "sd_bounds.csv").read_text()
    c = (tmp_path / "c" / "sd_bounds.csv").read_text()
    assert a != b
    assert a == c


def test_cli_sweep_parallelism_byte_identical(tmp_path):
    text = (
        "kind: sweep\nsystem: {M: 60, K: 200, tau_u: 40, seed: 5,\n"
        "  model: {type: uniform, alpha: 0.25}, mc: {n_beta_samples: 200}}\n"
        "methods: [Ra-opt, Rh0]\nsweep: {axis: tau_u, values: [30, 40, 50]}\n"
        "evaluate_with: R1\nout_prefix: sw\n"
    )
    spec = _write(tmp_path, "sw.yaml", text)
    assert main(["run", spec, "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    assert main(["run", spec, "--out", str(tmp_path / "j2"), "--jobs", "2"]) == 0
    # a sweep writes one CSV, the same bytes at any --jobs
    for out in ("j1", "j2"):
        assert [f.name for f in (tmp_path / out).glob("*.csv")] == ["sw_rate.csv"]
    assert (tmp_path / "j1" / "sw_rate.csv").read_bytes() == (tmp_path / "j2" / "sw_rate.csv").read_bytes()
    body = (tmp_path / "j1" / "sw_rate.csv").read_text().strip().split("\n")
    assert body[0] == CSV_HEADER
    assert len(body) == 1 + 3 * 2
    for ln in body[1:]:
        parts = ln.split(",")
        assert float(parts[2]) >= 0.0
        assert 1 <= int(parts[3]) <= int(parts[0])


def test_cli_simulate_and_compare(tmp_path):
    sim = _write(
        tmp_path, "sim.yaml",
        "kind: simulate\nsystem: {M: 64, K: 60, tau_u: 60, tau_p: 12, p_a: 0.1, seed: 3}\n"
        "n_slots: 60\nn_frames: 2\nout_prefix: sim\n",
    )
    assert main(["run", sim, "--out", str(tmp_path / "sim")]) == 0
    lines = (tmp_path / "sim" / "sim_simulate.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 + 1  # two frames plus the aggregate row

    cmp_spec = _write(
        tmp_path, "cmp.yaml",
        "kind: compare\nsystem: {M: 64, K: 60, tau_u: 60, seed: 3, mc: {n_beta_samples: 200}}\n"
        "methods: [Rh0]\nn_slots: 150\nn_frames: 4\nout_prefix: cmp\n",
    )
    assert main(["run", cmp_spec, "--out", str(tmp_path / "cmp")]) == 0
    lines = (tmp_path / "cmp" / "cmp_compare.csv").read_text().strip().split("\n")
    rows = {ln.split(",")[1]: ln.split(",") for ln in lines[1:]}
    bound = float(rows["Rh0"][2])
    sim_mean = float(rows["Rh0-sim"][2])
    sim_err = float(rows["Rh0-sim"][5])
    # the simulated rate sits at or above the lower bound
    assert sim_mean >= bound - max(3 * sim_err, 0.15 * bound)


def test_cli_compare_evaluates_with_the_spec_bound(tmp_path):
    # compare writes the evaluate_with bound at each method's point, not always R1
    system = {"M": 64, "K": 60, "tau_u": 60, "seed": 3}
    spec = _write(
        tmp_path, "cmp.yaml",
        "kind: compare\nsystem: {M: 64, K: 60, tau_u: 60, seed: 3}\n"
        "methods: [Rh0]\nn_slots: 20\nevaluate_with: Ra\nout_prefix: cmp\n",
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "cmp_compare.csv").read_text().strip().split("\n")
    row = next(ln.split(",") for ln in lines[1:] if ln.split(",")[1] == "Rh0")
    cfg, _ = build_system(system)
    res = optimize("Rh0", cfg)
    want = bound_at("Ra", cfg, res.tau_p_opt, res.p_aK_opt)
    assert row[2:4] == [f"{want.value:.9g}", str(res.tau_p_opt)]
    assert float(row[2]) != bound_at("R1", cfg, res.tau_p_opt, res.p_aK_opt).value


@pytest.mark.parametrize("evaluate_with", ["Ra", "R3", "R1"])
def test_each_bound_is_taken_once_per_method_point(tmp_path, monkeypatch, evaluate_with):
    # Ra-1D takes the Ra bound at its point and an -opt method its cost in the
    # grid: a CSV row evaluated with that same bound reuses it
    from pilothop import experiments
    from pilothop import optimize as optimize_module
    from pilothop.optimize import RATE_BOUND

    calls = []
    for module in (experiments, optimize_module):
        def counted(bound, cfg, tau_p, p_aK, take=module.bound_at):
            calls.append((bound, tau_p, p_aK))
            return take(bound, cfg, tau_p, p_aK)

        monkeypatch.setattr(module, "bound_at", counted)
    system = {"M": 60, "K": 200, "tau_u": 40, "seed": 2, "model": {"type": "lognormal", "sigma_v2": 4.0},
              "mc": {"n_beta_samples": 60}}
    methods = ["R1-opt", "R3-opt", "Ra-opt", "Ra-1D", "Rh0"]
    spec = _write(
        tmp_path, "opt.yaml",
        f"kind: optimize\nsystem: {system}\nmethods: {methods}\n"
        f"evaluate_with: {evaluate_with}\nout_prefix: opt\n",
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == 0
    seen = list(calls)
    cfg, _ = build_system(system)
    points = [(res.tau_p_opt, res.p_aK_opt) for res in (optimize(m, cfg) for m in methods)]
    want = []
    for m, point in zip(methods, points):
        want += [("Ra", *point)] if m == "Ra-1D" else []
        want += [(evaluate_with, *point)] if RATE_BOUND.get(m) != evaluate_with else []
    assert seen == want
    lines = (tmp_path / "opt_optimize.csv").read_text().strip().split("\n")[1:]
    assert len(lines) == len(methods)
    for line, (tau_p, p_aK) in zip(lines, points):
        b = bound_at(evaluate_with, cfg, tau_p, p_aK)
        assert line.split(",")[2::3] == [f"{b.value:.9g}", f"{b.mc_std_err:.9g}"]


def test_run_experiment_unknown_kind():
    from pilothop.config import ExperimentSpec

    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(kind="mystery", system={"M": 100}))
