"""Smoke tests for the observability subcommands: audit, metrics, top."""

import repro.service.__main__ as cli
from repro.observability.ops import (
    audit_events_from_jsonl,
    parse_prometheus,
)
from repro.service.__main__ import main


def seeded_state(tmp_path, telemetry=False, alerts=None, slos=()):
    """Drive a tiny two-tenant workload into a SQLite state dir."""
    state = str(tmp_path / "state")
    base = ["--state", state]
    extras = []
    if telemetry:
        extras.append("--telemetry")
    if alerts:
        extras.extend(["--alerts", alerts])
    for slo in slos:
        extras.extend(["--slo", slo])
    assert main(base + ["tenants", "--add", "a", "--weight", "2"]) == 0
    assert main(base + ["tenants", "--add", "b", "--max-tenant-runs", "1"]) == 0
    assert main(base + ["submit", "--tenant", "a", "--pairs", "1"]) == 0
    assert main(base + ["submit", "--tenant", "b", "--pairs", "1"]) == 0
    assert main(base + ["submit", "--tenant", "b", "--pairs", "1"]) == 0
    assert main(base + extras + ["drain"]) == 0
    return base


class TestAuditCommand:
    def test_full_trail_renders(self, tmp_path, capsys):
        base = seeded_state(tmp_path)
        assert main(base + ["audit"]) == 0
        output = capsys.readouterr().out
        assert "submit svc-0001" in output
        assert "-> done" in output

    def test_single_run_filter_and_json(self, tmp_path, capsys):
        base = seeded_state(tmp_path)
        assert main(base + ["audit", "svc-0002"]) == 0
        human = capsys.readouterr().out
        assert "svc-0002" in human
        assert main(base + ["audit", "svc-0002", "--json"]) == 0
        events = audit_events_from_jsonl(capsys.readouterr().out)
        assert events
        assert all(e.run_id == "svc-0002" for e in events)

    def test_unknown_run_fails(self, tmp_path):
        base = seeded_state(tmp_path)
        assert main(base + ["audit", "svc-9999"]) == 1

    def test_audit_is_identical_across_identical_states(self, tmp_path, capsys):
        first = seeded_state(tmp_path / "one")
        assert main(first + ["audit", "--json"]) == 0
        first_trail = capsys.readouterr().out
        second = seeded_state(tmp_path / "two")
        assert main(second + ["audit", "--json"]) == 0
        assert capsys.readouterr().out == first_trail


class TestMetricsCommand:
    def test_stdout_output_parses_strictly(self, tmp_path, capsys):
        base = seeded_state(tmp_path)
        capsys.readouterr()  # drop the seeding chatter
        assert main(base + ["metrics"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        tenants = {
            labels["tenant"]
            for name, labels, _ in parsed["samples"]
            if name == "repro_tenant_runs_submitted_total"
        }
        assert tenants == {"a", "b"}

    def test_out_file(self, tmp_path, capsys):
        base = seeded_state(tmp_path)
        out = tmp_path / "metrics.prom"
        assert main(base + ["metrics", "--out", str(out)]) == 0
        parsed = parse_prometheus(out.read_text(encoding="utf-8"))
        assert parsed["families"]["repro_tenant_runs_total"] == "counter"

    def test_empty_state_still_renders(self, tmp_path, capsys):
        base = ["--state", str(tmp_path / "fresh")]
        assert main(base + ["metrics"]) == 0
        parse_prometheus(capsys.readouterr().out)


class TestTopCommand:
    def test_once_renders_tenant_table(self, tmp_path, capsys):
        base = seeded_state(tmp_path)
        assert main(base + ["top"]) == 0
        frame = capsys.readouterr().out
        assert "TENANT" in frame
        assert "\na" in frame and "\nb" in frame
        assert "SLOs:" in frame

    def test_once_against_empty_state(self, tmp_path, capsys):
        base = ["--state", str(tmp_path / "fresh")]
        assert main(base + ["top"]) == 0
        assert "(no tenants)" in capsys.readouterr().out

    def test_top_shows_alerts_from_jsonl(self, tmp_path, capsys):
        alerts = str(tmp_path / "alerts.jsonl")
        base = seeded_state(
            tmp_path,
            telemetry=True,
            alerts=alerts,
            slos=["share-deviation=0.01"],
        )
        assert main(
            base + ["--alerts", alerts, "top"]
        ) == 0
        frame = capsys.readouterr().out
        assert "Recent alerts" in frame
        assert "slo-burn" in frame


class TestDemoTelemetry:
    def test_demo_reports_rollups_and_slo_burns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "DEMO_SCRIPT",
            {
                "tenants": [
                    {"name": "a", "weight": 2.0, "max_concurrent_runs": 2},
                    {"name": "b", "weight": 1.0, "max_concurrent_runs": 1},
                ],
                "runs": [
                    {"tenant": "a", "n_items": 1},
                    {"tenant": "b", "n_items": 1},
                    {"tenant": "b", "n_items": 1},
                ],
            },
        )
        alerts = str(tmp_path / "alerts.jsonl")
        code = main(
            [
                "--store", "memory",
                "--state", str(tmp_path / "unused"),
                "--telemetry",
                "--alerts", alerts,
                "--slo", "share-deviation=0.01",
                "demo",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "slo burns:" in output
        # the lopsided usage tripped the tight share-deviation objective
        assert "share-deviation-slo/" in output
