"""Tests for the live-monitoring CLI: --monitor/--alerts/--feedback,
report-health, and the alert gate in compare-runs."""

import json

from repro.experiments.__main__ import main
from repro.observability.alerts import alerts_from_jsonl


FAULTY = ["--testbed", "faulty", "--pairs", "4", "--config", "SP+DP", "--seed", "42"]


class TestBronzeMonitoring:
    def test_monitor_prints_progress_and_alert_summary(self, capsys):
        assert main(["bronze", *FAULTY, "--monitor"]) == 0
        out = capsys.readouterr().out
        assert "progress " in out and "eta" in out
        assert "alerts:" in out
        assert "flagged CEs: site01-ce" in out

    def test_alerts_written_as_readable_jsonl(self, capsys, tmp_path):
        path = tmp_path / "alerts.jsonl"
        assert main(["bronze", *FAULTY, "--alerts", str(path)]) == 0
        out = capsys.readouterr().out
        alerts = alerts_from_jsonl(path.read_text())
        assert alerts, "the faulty testbed must raise alerts"
        assert "fault-burst" in {a.kind for a in alerts}
        assert f"alerts written: {path}" in out

    def test_feedback_reports_reactions(self, capsys):
        assert main(["bronze", *FAULTY, "--feedback"]) == 0
        out = capsys.readouterr().out
        assert "broker demotions:" in out

    def test_healthy_run_raises_no_alerts(self, capsys):
        assert main([
            "bronze", "--pairs", "2", "--config", "SP+DP", "--monitor",
        ]) == 0
        out = capsys.readouterr().out
        assert "flagged CEs:" not in out


class TestReportHealth:
    def test_live_run_flags_injected_pathologies(self, capsys):
        # pairs=8 gives the straggler site enough completions to cross
        # the detection thresholds (see the ablation benchmark)
        assert main([
            "report-health", "--testbed", "faulty", "--pairs", "8",
            "--config", "SP+DP", "--seed", "42",
        ]) == 0
        out = capsys.readouterr().out
        assert "site01-ce" in out and "BLACKHOLE" in out
        assert "site02-ce" in out and "STRAGGLER" in out
        assert "fault-burst" in out

    def test_trace_replay_matches_live(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["bronze", *FAULTY, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report-health", *FAULTY]) == 0
        live = capsys.readouterr().out
        assert main([
            "report-health", "--trace", str(trace),
            "--pairs", "4", "--config", "SP+DP",
        ]) == 0
        replayed = capsys.readouterr().out
        # offline replay of the trace reconstructs the same tables
        assert replayed == live


class TestAlertBudget:
    def _record(self, tmp_path, out_name):
        path = tmp_path / out_name
        assert main([
            "record-run", "--store", str(tmp_path / "store"), "--pairs", "2",
            "--config", "SP+DP", "--out", str(path),
        ]) == 0
        return path

    def test_new_alerts_fail_the_gate(self, capsys, tmp_path):
        baseline = self._record(tmp_path, "baseline.json")
        candidate = json.loads(baseline.read_text())
        candidate["counters"]["monitor.alerts.total"] = 2.0
        candidate["counters"]["monitor.alerts.blackhole"] = 2.0
        tampered = tmp_path / "alerting.json"
        tampered.write_text(json.dumps(candidate))
        capsys.readouterr()
        assert main([
            "compare-runs", str(baseline), str(tampered),
            "--store", str(tmp_path / "store"),
        ]) == 1
        out = capsys.readouterr().out
        assert "counters.monitor.alerts.total: (absent) -> 2.0" in out
        assert "counters.monitor.alerts.blackhole: (absent) -> 2.0" in out
        assert "verdict: 2 key(s) changed" in out
