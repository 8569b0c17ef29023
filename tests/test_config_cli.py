import dataclasses
import json

import numpy as np
import pytest

from obsthermo import (
    BUNDLED_SCENARIOS,
    ValidationError,
    analyze,
    bundled_scenario,
    bundled_scenario_path,
    parse_scenario,
    verify,
)
import obsthermo.optimize as optmod
from obsthermo.cli import main as cli_main
from obsthermo.optimize import OptimizerSettings
from obsthermo.workflows import optimize


def minimal_config(**overrides):
    cfg = {
        "name": "mini",
        "questions": [{"label": "Qz", "axis": [0.0, 0.0, 1.0]}],
        "process": {"type": "iid", "weights": [1.0]},
        "window": 1,
        "strategy": {"type": "window", "k": 1, "labeled": False},
    }
    cfg.update(overrides)
    return cfg


def test_bundled_scenarios_parse():
    for name in BUNDLED_SCENARIOS:
        sc = bundled_scenario(name)
        assert sc.name == name


def test_unknown_scenario_key_rejected():
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_scenario(minimal_config(extra_field=1))


def test_unknown_process_key_rejected():
    with pytest.raises(ValidationError, match="scenario.process"):
        parse_scenario(minimal_config(process={"type": "iid", "weights": [1.0], "junk": 0}))


def test_error_messages_name_the_field():
    with pytest.raises(ValidationError, match="scenario.questions"):
        parse_scenario(minimal_config(questions=[]))
    with pytest.raises(ValidationError, match="scenario.window"):
        parse_scenario(minimal_config(window=0))
    with pytest.raises(ValidationError, match="temperature"):
        parse_scenario(minimal_config(temperature_kelvin=-1.0))
    with pytest.raises(ValidationError, match="weights"):
        parse_scenario(minimal_config(process={"type": "iid", "weights": [0.7]}))


def test_axis_normalization_rules():
    near = minimal_config(questions=[{"label": "Q", "axis": [0.0, 0.0, 1.0000004]}])
    sc = parse_scenario(near)
    assert np.linalg.norm(sc.questions[0].axis) == pytest.approx(1.0, abs=1e-15)
    far = minimal_config(questions=[{"label": "Q", "axis": [0.0, 0.0, 1.1]}])
    with pytest.raises(ValidationError, match="axis"):
        parse_scenario(far)


def test_default_initial_state_is_mixed():
    sc = parse_scenario(minimal_config())
    assert sc.initial_state.as_array().tolist() == [0.0, 0.0, 0.0]


def test_strategy_optional_until_analyze():
    cfg = minimal_config()
    del cfg["strategy"]
    sc = parse_scenario(cfg)
    with pytest.raises(ValidationError, match="strategy"):
        analyze(sc)


def test_periodic_process_cannot_be_analyzed():
    cfg = minimal_config(process={"type": "periodic", "sequence": ["Qz"]})
    sc = parse_scenario(cfg)
    with pytest.raises(ValidationError, match="enumeration"):
        analyze(sc)


def test_every_bundled_scenario_verifies_before_analysis():
    # analysis results are only trusted once every oracle check passes
    for name in BUNDLED_SCENARIOS:
        sc = bundled_scenario(name)
        verdicts = verify(sc, mc_samples=2000, seed=17)
        assert all(v["pass"] for v in verdicts), f"{name}: {verdicts}"
        analyze(sc)


def test_cli_analyze_deterministic(tmp_path):
    cfg = bundled_scenario_path("case_a")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["analyze", "--config", cfg, "--out", str(out1)]) == 0
    assert cli_main(["analyze", "--config", cfg, "--out", str(out2)]) == 0
    for fname in ("case_a_report.json", "case_a_window_joint.csv", "case_a_memory_joint.csv"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    report = json.loads((out1 / "case_a_report.json").read_text())
    assert set(report) == {
        "i_mem",
        "i_pred",
        "nostalgia",
        "bound_bits",
        "bound_joules",
        "memory_capacity_bits",
    }
    assert report["bound_bits"] == 0.0
    assert report["bound_joules"] == 0.0
    # without a temperature the report has no joules
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(minimal_config()))
    assert cli_main(["analyze", "--config", str(path), "--out", str(tmp_path / "r3")]) == 0
    report = json.loads((tmp_path / "r3" / "mini_report.json").read_text())
    assert "bound_joules" not in report and "bound_bits" in report


def test_cli_sample_reproducible(tmp_path):
    cfg = bundled_scenario_path("case_b_labeled")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        rc = cli_main(
            ["sample", "--config", cfg, "--length", "200", "--seed", "9", "--out", str(out)]
        )
        assert rc == 0
    a = (out1 / "case_b_labeled_trajectory.csv").read_bytes()
    b = (out2 / "case_b_labeled_trajectory.csv").read_bytes()
    assert a == b
    assert a.decode().splitlines()[0] == "t,question,answer"


def test_cli_sample_case_a_constant_answers(tmp_path):
    cfg = bundled_scenario_path("case_a")
    assert cli_main(["sample", "--config", cfg, "--length", "5", "--seed", "7", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "case_a_trajectory.csv").read_text().splitlines()[1:]
    answers = {r.split(",")[2] for r in rows}
    assert len(answers) == 1  # repeatability: one value throughout


def test_cli_verify_passes_on_bundled(tmp_path):
    cfg = bundled_scenario_path("case_b_unlabeled")
    rc = cli_main(["verify", "--config", cfg, "--mc-samples", "2000", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "case_b_unlabeled_verify.jsonl").read_text().splitlines()
    verdicts = [json.loads(l) for l in lines]
    assert {"check", "scenario", "deviation", "tolerance", "pass"} == set(verdicts[0])
    assert all(v["pass"] for v in verdicts)


def test_cli_optimize_writes_outputs(tmp_path):
    cfg = bundled_scenario_path("case_a")
    rc = cli_main(["optimize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    frontier = (tmp_path / "case_a_frontier.csv").read_text().splitlines()
    assert frontier[0] == "beta,i_mem_bits,i_pred_bits,nostalgia_bits,objective,converged,iterations"
    assert len(frontier) == 1 + len(optmod.BETAS)
    degeneracy = json.loads((tmp_path / "case_a_degeneracy.json").read_text())
    kinds = {d["observer_like"] for d in degeneracy}
    assert kinds == {True, False}
    assert (tmp_path / "case_a_best_strategy.csv").exists()


def test_cli_optimize_deterministic(tmp_path):
    cfg = bundled_scenario_path("case_a")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert cli_main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    for fname in ("case_a_frontier.csv", "case_a_best_strategy.csv", "case_a_degeneracy.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_cli_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_config(window=0)))
    assert cli_main(["analyze", "--config", str(bad), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"strategy": {"type": "window", "k": 1, "labeled": "false"}}, id="string-bool"),
        pytest.param({"window": 2.7}, id="fractional-window"),
        pytest.param({"window": "two"}, id="string-window"),
        pytest.param({"window": True}, id="bool-window"),
        pytest.param({"optimizer": {"memory_size": 2, "history": 5}}, id="number-history"),
        pytest.param({"optimizer": {"memory_size": 2, "beta_max": [1]}}, id="list-beta-max"),
        pytest.param({"questions": [{"label": "Qz", "axis": "z"}]}, id="string-axis"),
        pytest.param({"initial_state": "mixed"}, id="string-initial-state"),
        pytest.param({"process": {"type": "iid", "weights": ["1"]}}, id="string-weight"),
    ],
)
def test_cli_malformed_values_exit_1_naming_the_field(tmp_path, capsys, overrides):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_config(**overrides)))
    assert cli_main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("invalid input: scenario.")


@pytest.mark.parametrize(
    "command,overrides,args,field",
    [
        pytest.param("sample", {}, ["--length", "10", "--seed", "-1"], "seed", id="sample-seed"),
        pytest.param("verify", {}, ["--seed", "-1"], "seed", id="verify-seed"),
        pytest.param(
            "optimize", {"optimizer": {"memory_size": 2}}, ["--seed", "-1"], "seed", id="optimize-seed"
        ),
        pytest.param(
            "optimize",
            {"optimizer": {"memory_size": 2, "seed": -3}},
            [],
            "scenario.optimizer: seed",
            id="config-seed",
        ),
        pytest.param(
            "analyze",
            {"questions": [{"label": ["Qz"], "axis": [0.0, 0.0, 1.0]}]},
            [],
            "scenario.questions[0].label",
            id="list-label",
        ),
        pytest.param("analyze", {"name": {"a": 1}}, [], "scenario.name", id="object-name"),
        pytest.param("analyze", {"output": ["x"]}, [], "scenario.output", id="list-output"),
        pytest.param(
            "analyze",
            {"process": {"type": ["iid"], "weights": [1.0]}},
            [],
            "scenario.process.type",
            id="list-process-type",
        ),
        pytest.param(
            "analyze",
            {"strategy": {"type": ["window"], "k": 1}},
            [],
            "scenario.strategy.type",
            id="list-strategy-type",
        ),
        pytest.param(
            "analyze",
            {"process": {"type": "periodic", "sequence": "Qz"}},
            [],
            "scenario.process.sequence",
            id="string-sequence",
        ),
        pytest.param(
            "analyze",
            {"process": {"type": "periodic", "sequence": ["Qz", 1]}},
            [],
            "scenario.process.sequence",
            id="number-in-sequence",
        ),
    ],
)
def test_cli_non_strings_and_negative_seeds_exit_1(tmp_path, capsys, command, overrides, args, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_config(**overrides)))
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out"), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {field}")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["../escaped", "a/b", "..\\escaped"])
def test_cli_scenario_name_must_be_one_path_component(tmp_path, capsys, name):
    # output files are named after the scenario: a separator would put them outside --out
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_config(name=name)))
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "nested" / "out"
    assert cli_main(["analyze", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: scenario.name")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_sample_and_verify_accept_the_largest_seed(tmp_path):
    # the answer and bootstrap streams derive their keys from seed + offset, mod 2**128
    cfg = bundled_scenario_path("case_b_labeled")
    seed = str(2**128 - 1)
    out = str(tmp_path)
    assert cli_main(["sample", "--config", cfg, "--length", "100", "--seed", seed, "--out", out]) == 0
    assert cli_main(["verify", "--config", cfg, "--seed", seed, "--out", out]) == 0


def test_optimizer_defaults_live_in_the_settings_class():
    cases = [
        ({"memory_size": 3}, OptimizerSettings(memory_size=3)),
        ({"memory_size": 2, "history": {"labeled": False}}, OptimizerSettings(2, history_labeled=False)),
        ({"memory_size": 2, "seed": 5, "history": {"k": 1}}, OptimizerSettings(2, seed=5, history_k=1)),
    ]
    for optimizer, expected in cases:
        parsed = parse_scenario(minimal_config(optimizer=optimizer)).optimizer
        for field in dataclasses.fields(OptimizerSettings):
            assert getattr(parsed, field.name) == getattr(expected, field.name), field.name


def test_integral_floats_count_as_integers():
    sc = parse_scenario(minimal_config(window=2.0, strategy={"type": "window", "k": 1.0}))
    assert (sc.window, sc.strategy.k) == (2, 1)
    assert type(sc.window) is int


def test_cli_nonconvergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(optmod, "BETAS", np.geomspace(4.0, 8.0, 2))
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(optmod, "TOLERANCE", 1e-15)
    monkeypatch.setattr(optmod, "RESTARTS", 2)
    cfg = minimal_config(
        questions=[
            {"label": "Qz", "axis": [0.0, 0.0, 1.0]},
            {"label": "Qx", "axis": [1.0, 0.0, 0.0]},
        ],
        process={"type": "iid", "weights": [0.5, 0.5]},
        optimizer={"memory_size": 4, "seed": 0, "history": {"k": 1, "labeled": True}},
    )
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["optimize", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    # wire a failing verdict through the CLI to pin the exit code contract
    from obsthermo import cli as cli_module

    def fake_verify(scenario, mc_samples, seed):
        return [
            {"check": "window_vs_oracle", "scenario": scenario.name, "deviation": 1.0,
             "tolerance": 1e-10, "pass": False}
        ]

    monkeypatch.setattr(cli_module.workflows, "verify", fake_verify)
    cfg = bundled_scenario_path("case_a")
    assert cli_main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_missing_config_file(tmp_path):
    rc = cli_main(["analyze", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1


def _two_question_config(**overrides):
    return minimal_config(
        questions=[
            {"label": "Qz", "axis": [0.0, 0.0, 1.0]},
            {"label": "Qx", "axis": [1.0, 0.0, 0.0]},
        ],
        process={"type": "iid", "weights": [0.5, 0.5]},
        **overrides,
    )


def test_optimize_history_beyond_window_rejected(tmp_path):
    cfg = _two_question_config(window=2, optimizer={"memory_size": 2, "history": {"k": 3}})
    with pytest.raises(ValidationError, match="history"):
        optimize(parse_scenario(cfg))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_cli_analyze_beyond_the_entry_cap_writes_nothing(tmp_path, capsys):
    # K = 2, w = 11: analyze reads its k = 1 view, but the CLI also writes the
    # full window, which has 4^12 > WINDOW_ENTRY_CAP entries
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_two_question_config(window=11)))
    out = tmp_path / "out"
    assert cli_main(["analyze", "--config", str(path), "--out", str(out)]) == 1
    assert "size cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,config",
    [
        pytest.param("analyze", {"strategy": None}, id="analyze-no-strategy"),
        pytest.param("optimize", {}, id="optimize-no-optimizer"),
        pytest.param("analyze", {"window": 11}, id="analyze-beyond-the-entry-cap"),
    ],
)
def test_cli_failed_subcommand_leaves_no_out_directory(tmp_path, capsys, command, config):
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(_two_question_config(**config)))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(("invalid input: scenario.", "size cap exceeded:"))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analyze"], id="missing-config"),
        pytest.param(["sample", "--config", "c.json", "--length", "x"], id="non-integer-length"),
        pytest.param(["analyze", "--config", "c.json", "--seed", "3"], id="analyze-seed"),
        pytest.param(["fit", "--config", "c.json"], id="unknown-subcommand"),
    ],
)
def test_cli_usage_errors_exit_1_with_the_usage_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: obsthermo") and "error: " in err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out and "--seed" not in out


@pytest.mark.parametrize(
    "key,value",
    [
        ("beta_min", 1.0),
        ("beta_max", 8.0),
        ("beta_steps", 7),
        ("tolerance", 1e-9),
        ("max_iterations", 10_000),
        ("restarts", 8),
    ],
)
def test_cli_optimizer_constants_are_not_config_keys(tmp_path, capsys, key, value):
    path = tmp_path / "knob.json"
    path.write_text(json.dumps(minimal_config(optimizer={"memory_size": 2, key: value})))
    assert cli_main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: scenario.optimizer: unknown keys ['{key}']")
