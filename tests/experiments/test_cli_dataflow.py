"""Tests for ``report-dataflow`` and the ``compare-runs`` byte gate."""

import json

import pytest

from repro.experiments.__main__ import main
from repro.observability.dataflow import parse_dot


class TestReportDataflow:
    def test_report_renders_tables(self, capsys):
        assert main(["report-dataflow", "--pairs", "2", "--config", "SP+DP+JG"]) == 0
        out = capsys.readouterr().out
        assert "=== data flow: SP+DP+JG" in out
        assert "top links by bytes" in out
        assert "top services by bytes" in out
        assert "bytes by purpose:" in out
        assert "enactor-moved" in out

    def test_dot_export_is_strictly_parseable(self, capsys, tmp_path):
        dot_path = tmp_path / "dataflow.dot"
        assert main([
            "report-dataflow", "--pairs", "2", "--config", "SP+DP",
            "--dot", str(dot_path),
        ]) == 0
        parsed = parse_dot(dot_path.read_text(encoding="utf-8"))
        assert parsed["nodes"]
        assert parsed["edges"]

    def test_dot_export_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "first.dot", tmp_path / "second.dot"]
        for path in paths:
            assert main([
                "report-dataflow", "--pairs", "2", "--config", "SP+DP+JG",
                "--seed", "11", "--dot", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestBudgetBytes:
    @pytest.fixture()
    def recorded_run(self, capsys, tmp_path):
        store = tmp_path / "runstore"
        baseline = tmp_path / "baseline.json"
        assert main([
            "record-run", "--pairs", "2", "--config", "SP+DP+JG",
            "--store", str(store), "--out", str(baseline),
        ]) == 0
        capsys.readouterr()
        return store, baseline

    def test_byte_counters_land_in_the_row(self, recorded_run):
        _store, baseline = recorded_run
        counters = json.loads(baseline.read_text())["counters"]
        for key in (
            "bytes.total",
            "bytes.peer_moved",
            "bytes.enactor_moved",
            "bytes.intermediate_saved_by_grouping",
        ):
            assert key in counters
        assert counters["bytes.enactor_moved"] > 0
        assert counters["bytes.intermediate_saved_by_grouping"] > 0
        # host cost stays out of a summary: every key is simulated
        assert not [key for key in counters if key.startswith(("perf.", "engine."))]

    def test_identical_runs_pass_a_zero_byte_budget(self, capsys, recorded_run):
        store, baseline = recorded_run
        assert main([
            "compare-runs", "--store", str(store),
            str(baseline), "latest",
        ]) == 0

    def test_tampered_byte_total_trips_the_gate(self, capsys, recorded_run):
        store, baseline = recorded_run
        payload = json.loads(baseline.read_text())
        payload["counters"]["bytes.total"] *= 1.5
        tampered = baseline.parent / "tampered.json"
        tampered.write_text(json.dumps(payload))
        assert main([
            "compare-runs", "--store", str(store),
            str(baseline), str(tampered),
        ]) == 1
        out = capsys.readouterr().out
        assert "counters.bytes.total: " in out
