"""Tests for the command-line entry point."""

import pytest

from repro.experiments.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.sizes == [12, 66, 126]
        assert args.seed == 42

    def test_bronze_options(self):
        args = build_parser().parse_args(
            ["bronze", "--pairs", "4", "--config", "DP", "--seed", "7"]
        )
        assert args.pairs == 4 and args.config == "DP" and args.seed == 7


class TestCommands:
    def test_diagrams(self, capsys):
        assert main(["diagrams"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 5" in out and "Figure 6" in out
        assert "D0 D1 D2" in out

    def test_bronze_small(self, capsys):
        assert main(["bronze", "--pairs", "3", "--config", "SP+DP"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "accuracy" in out
        assert "jobs: 18" in out

    def test_bronze_with_grouping_reports_groups(self, capsys):
        assert main(["bronze", "--pairs", "2", "--config", "SP+DP+JG"]) == 0
        out = capsys.readouterr().out
        assert "crestLines+crestMatch" in out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit, match="unknown configuration"):
            main(["bronze", "--pairs", "2", "--config", "TURBO"])

    @pytest.mark.parametrize(
        "argv,takers",
        [
            (["bronze", "--max-attempts", "1"], "faulty or chaotic"),
            (["bronze", "--no-repair"], "chaotic"),
            (["bronze", "--testbed", "faulty", "--no-repair"], "chaotic"),
            (["report-failures", "--no-repair"], "chaotic"),
        ],
    )
    def test_run_option_the_testbed_ignores_is_rejected(
        self, argv, takers, monkeypatch, capsys
    ):
        import repro.sim.engine

        def no_engine():
            raise AssertionError("an engine was built")

        monkeypatch.setattr(repro.sim.engine, "Engine", no_engine)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--pairs", "2"])
        assert excinfo.value.code == 2
        assert f"only with --testbed {takers};" in capsys.readouterr().err

    def test_table1_tiny_sweep(self, capsys):
        assert main(["table1", "--sizes", "2", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "ordering preserved" in out


class TestTraceExport:
    def test_bronze_writes_trace_files(self, capsys, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.trace.json"
        assert main([
            "bronze", "--pairs", "2", "--config", "SP+DP",
            "--trace", str(jsonl), "--chrome-trace", str(chrome),
        ]) == 0
        out = capsys.readouterr().out
        assert "jobs: 12" in out  # standard report is unchanged
        assert str(jsonl) in out
        assert str(chrome) in out

        from repro.observability.spans import spans_from_jsonl

        spans = spans_from_jsonl(jsonl.read_text())
        assert any(s.name == "run" for s in spans)
        assert any(s.name == "grid.job" for s in spans)

        import json

        document = json.loads(chrome.read_text())
        assert document["traceEvents"]

    def test_report_trace_renders_breakdown_and_drift(self, capsys, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        assert main([
            "bronze", "--pairs", "2", "--config", "SP+DP",
            "--trace", str(jsonl),
        ]) == 0
        capsys.readouterr()
        assert main(["report-trace", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "job.queue" in out  # phase breakdown table
        assert "SP+DP" in out and "<- this run" in out  # policy auto-derived
        assert "drift" in out

    def test_report_trace_policy_from_run_span(self, capsys, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        main(["bronze", "--pairs", "2", "--config", "NOP", "--trace", str(jsonl)])
        capsys.readouterr()
        assert main(["report-trace", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "model drift" in out
        assert "predicted (NOP):" in out

    def test_report_trace_missing_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report-trace", str(tmp_path / "nope.jsonl")])

    def test_report_trace_rejects_reduced_records_cleanly(self, tmp_path):
        jsonl = tmp_path / "reduced.jsonl"
        jsonl.write_text('{"start": 1.0, "end": 2.0}\n')
        with pytest.raises(SystemExit, match="line 1 is not a span record"):
            main(["report-trace", str(jsonl)])


class TestCrashPath:
    def test_simulated_crash_writes_and_closes_every_output(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.observability import JsonlAlertWriter

        closed = []
        close = JsonlAlertWriter.close
        monkeypatch.setattr(
            JsonlAlertWriter, "close", lambda self: (closed.append(self), close(self))[-1]
        )
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.trace.json"
        assert main([
            "bronze", "--pairs", "2", "--config", "SP+DP",
            "--journal", str(tmp_path / "w.wal"), "--crash-after", "3",
            "--trace", str(jsonl), "--chrome-trace", str(chrome),
            "--alerts", str(tmp_path / "alerts.jsonl"),
        ]) == 4
        assert "simulated crash after 3 invocations" in capsys.readouterr().out

        import json

        from repro.observability.spans import spans_from_jsonl

        traced = spans_from_jsonl(jsonl.read_text())
        events = json.loads(chrome.read_text())["traceEvents"]
        assert traced and events
        assert len(closed) == 1
