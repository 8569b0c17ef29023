"""Tests of the benchmark itself: its checks reject wrong outputs, and its
self-time arithmetic is right.

    python3 -m pytest perfbench/selftest.py

The file name keeps the repository's own `pytest` run from collecting it.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import CheckFailed

run.load_program()


def _op(workload, name):
    return next(op for op in workload.operations if op.name == name)


def test_bundled_rejects_wrong_and_changed_outputs(tmp_path):
    bundled = workloads.Bundled(seed=3, scratch=tmp_path)
    op = _op(bundled, "case_a")
    op.check(op.run())  # the first output becomes the reference

    files = {p.name: p.read_bytes() for p in op.run().iterdir()}
    workloads.check_bundled_files("case_a", files)

    report = json.loads(files["case_a_report.json"])
    wrong = dict(files, **{"case_a_report.json": json.dumps(dict(report, i_pred=report["i_pred"] - 1e-6)).encode()})
    with pytest.raises(CheckFailed, match="i_pred"):
        workloads.check_bundled_files("case_a", wrong)

    lines = files["case_a_verify.jsonl"].decode().splitlines()
    lines[0] = lines[0].replace('"pass": true', '"pass": false')
    with pytest.raises(CheckFailed, match="failed verdicts"):
        workloads.check_bundled_files("case_a", dict(files, **{"case_a_verify.jsonl": "\n".join(lines).encode()}))

    rows = files["case_a_trajectory.csv"].decode().splitlines()
    t, q, a = rows[-1].split(",")
    rows[-1] = f"{t},{q},{1 - int(a)}"
    with pytest.raises(CheckFailed, match="answer changed"):
        workloads.check_bundled_files("case_a", dict(files, **{"case_a_trajectory.csv": "\n".join(rows).encode()}))

    # the same config and seed must write the same bytes as the first run did
    path = tmp_path / "case_a" / "case_a_frontier.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(CheckFailed, match="different"):
        op.check(tmp_path / "case_a")


def test_wide_window_rejects_off_closed_form(tmp_path):
    wide = workloads.WideWindow(seed=4, scratch=tmp_path)
    for name in ("w5_k2_labeled", "w5_k3_unlabeled", "w8_nothing"):
        op = _op(wide, name)
        report = op.run()
        op.check(report)
        with pytest.raises(CheckFailed, match="i_pred"):
            op.check(dataclasses.replace(report, i_pred=report.i_pred + 1e-6))
        with pytest.raises(CheckFailed, match="i_mem"):
            op.check(dataclasses.replace(report, i_mem=report.i_mem - 1e-6))


def test_monte_carlo_rejects_failed_verdict_and_far_estimate(tmp_path):
    mc = workloads.MonteCarlo(seed=5, scratch=tmp_path)
    try:
        op = _op(mc, "case_b_labeled")
        verdicts, reports = op.run()
        op.check((verdicts, reports))
        failed = [dict(v, **{"pass": False}) if v["check"] == "exogeneity" else v for v in verdicts]
        with pytest.raises(CheckFailed, match="exogeneity"):
            op.check((failed, reports))
        far = dataclasses.replace(reports[0], i_pred=reports[0].i_pred + 4 * reports[0].se_i_pred)
        with pytest.raises(CheckFailed, match="Monte Carlo i_pred"):
            op.check((verdicts, [far]))
    finally:
        mc.close()


def test_exhaustive_rejects_misreported_optimum(tmp_path):
    exhaustive = workloads.Exhaustive(seed=6, scratch=tmp_path)
    op = _op(exhaustive, "K2_k3U_M4")
    result = op.run()
    op.check(result)

    best = result.exhaustive_reference
    shifted = dataclasses.replace(best, i_pred=best.i_pred + 1e-6)
    with pytest.raises(CheckFailed, match="best map i_pred"):
        op.check(dataclasses.replace(result, exhaustive_reference=shifted))

    no_constant = tuple(d for d in result.degeneracy if len(set(d.map_indices)) > 1)
    with pytest.raises(CheckFailed, match="constant maps"):
        op.check(dataclasses.replace(result, degeneracy=no_constant))

    top = result.points[-1]
    wrong = dataclasses.replace(top, i_pred=top.i_mem + 1e-6)
    with pytest.raises(CheckFailed, match="frontier point"):
        op.check(dataclasses.replace(result, points=result.points[:-1] + (wrong,)))


def test_self_time_excludes_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b", 6.0, 7.0, 3),  # b inside b: self time once each, inclusive time once
        ("d", 11.0, 12.0, -1),
    ]
    got = tracing.self_times(spans)
    assert got["a"] == [3.0, 10.0, 1]
    assert got["b"] == [2.0 + 3.0 + 1.0, 3.0 + 4.0, 3]
    assert got["c"] == [1.0, 1.0, 1]
    assert got["d"] == [1.0, 1.0, 1]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0), ("d", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)["a"][0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_patches_every_import_site_and_restores_them():
    import importlib

    workflows = importlib.import_module("obsthermo.workflows")
    config = importlib.import_module("obsthermo.config")
    before = workflows.apply_strategy
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = set(tracer.sites())
        for site in (
            "workflows.apply_strategy",
            "oracle.apply_strategy",
            "workflows.sweep_beta",
            "workflows.history_future_joint",
            "workflows.exhaustive_best",
            "workflows.degeneracy_report",
            "cli.load_scenario",
            "joint.JointDistribution.marginal",
        ):
            assert site in sites
        workflows.analyze(config.bundled_scenario("case_b_labeled"))
    finally:
        tracer.uninstall()
    assert workflows.apply_strategy is before
    summary = tracer.summary()
    for layer in ("chain.window_joint", "strategy.apply_strategy", "bound.evaluate", "joint.marginal"):
        assert summary[layer][2] >= 1
    assert tracer.counts["strategy.apply_strategy"] == 16 * 64
    assert "cli.main" in tracing.missing_layers(summary, "bundled")
    assert tracing.missing_layers(summary, "wide_window") == []


def test_benchmark_file_matches_the_metrics_reported():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    readme = (Path(run.HERE) / "README.md").read_text()
    for name in tracing.PER_LAYER_METRICS:
        assert f"`{name}`" in readme
