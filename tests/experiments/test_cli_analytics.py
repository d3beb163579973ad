"""Tests for the analytics subcommands: critical path, Gantt, run store."""

import json

import pytest

from repro.experiments.__main__ import main


@pytest.mark.parametrize("config", ["NOP", "DP", "SP", "SP+DP"])
def test_report_critical_path_every_policy(capsys, config):
    assert main([
        "report-critical-path", "--pairs", "2", "--config", config,
    ]) == 0
    out = capsys.readouterr().out
    assert "gating steps" in out
    assert "phase totals:" in out
    assert "= run makespan" in out
    assert "static prediction:" in out
    # the tiling identity is printed as "chain total: Xs = run makespan Xs"
    total_line = next(
        line for line in out.splitlines() if line.startswith("chain total:")
    )
    chain, makespan = total_line.split("=")
    assert chain.split(":")[1].strip() == makespan.replace(
        "run makespan", ""
    ).strip()


def test_report_critical_path_from_trace_file(capsys, tmp_path):
    trace = tmp_path / "run.jsonl"
    assert main([
        "bronze", "--pairs", "2", "--config", "SP+DP", "--trace", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["report-critical-path", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "gating steps" in out
    assert "= run makespan" in out


def test_gantt_renders_every_ce(capsys):
    assert main(["gantt", "--pairs", "2", "--config", "SP+DP"]) == 0
    out = capsys.readouterr().out
    assert "window:" in out
    assert "running jobs per CE" in out
    assert "CE utilization" in out
    # every CE in the utilization table has a lane in the chart
    chart, _, table = out.partition("=== CE utilization ===")
    for line in table.splitlines():
        cells = line.split("|")
        if len(cells) > 1 and cells[0].strip().endswith("-ce"):
            assert cells[0].strip() in chart


def test_record_and_compare_runs_ok_path(capsys, tmp_path):
    store = str(tmp_path / "store")
    for _ in range(2):
        assert main([
            "record-run", "--store", store, "--pairs", "2",
            "--config", "SP+DP",
        ]) == 0
    out = capsys.readouterr().out
    assert "recorded run-0001" in out and "recorded run-0002" in out
    assert main([
        "compare-runs", "run-0001", "run-0002", "--store", store,
    ]) == 0
    out = capsys.readouterr().out
    assert "verdict: OK" in out


def test_compare_runs_flags_injected_regression(capsys, tmp_path):
    store = tmp_path / "store"
    assert main([
        "record-run", "--store", str(store), "--pairs", "2",
        "--config", "SP+DP", "--out", str(tmp_path / "baseline.json"),
    ]) == 0
    capsys.readouterr()
    # inject a 1.5x overhead increase into a copy of the summary
    tampered = json.loads((tmp_path / "baseline.json").read_text())
    tampered["makespan"] *= 1.5
    tampered["phase_totals"] = {
        key: value * 1.5 for key, value in tampered["phase_totals"].items()
    }
    (store / "run-0002.json").write_text(json.dumps(tampered))
    assert main([
        "compare-runs", "run-0001", "run-0002", "--store", str(store),
    ]) == 1
    out = capsys.readouterr().out
    assert "changed:" in out
    assert "  makespan: " in out


def test_compare_runs_unknown_ref_exits(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "compare-runs", "run-0001", "run-0002",
            "--store", str(tmp_path / "empty"),
        ])
