"""Tests for the pure-string ops console frames."""

from repro.observability.alerts import Alert
from repro.observability.ops.console import render_top
from repro.observability.ops.rollup import TenantRollup
from repro.observability.ops.slo import SLOStatus


def make_rollup(tenant="alice", **overrides):
    rollup = TenantRollup(tenant=tenant, weight=2.0)
    rollup.submitted = 4
    rollup.queued = 1
    rollup.running = 1
    rollup.done = 2
    rollup.jobs_completed = 12
    rollup.cpu_seconds = 7200.0
    rollup.admission_waits.extend([5.0, 10.0, 20.0])
    rollup.makespans.append(120.0)
    rollup.usage = 3.0
    for key, value in overrides.items():
        setattr(rollup, key, value)
    return rollup


class TestRenderTop:
    def test_frame_contains_header_and_tenant_rows(self):
        frame = render_top(
            [make_rollup(), make_rollup(tenant="bob", usage=1.0)], now=120.0
        )
        assert frame.startswith("== enactment service :: t=120s ==")
        assert "TENANT" in frame and "WAITP95" in frame and "HEALTH" in frame
        lines = frame.splitlines()
        alice_row = next(line for line in lines if line.startswith("alice"))
        assert " 100%" in alice_row  # 2/2 done -> health
        assert "#" in alice_row  # usage bar has filled cells
        assert any(line.startswith("bob") for line in lines)

    def test_offline_frame_without_now(self):
        frame = render_top([make_rollup()])
        assert ":: offline ==" in frame

    def test_empty_store_still_renders(self):
        frame = render_top([])
        assert "(no tenants)" in frame
        assert frame.endswith("\n")

    def test_slo_section_marks_burning_objectives(self):
        ok = SLOStatus(
            slo="qw", kind="queue-wait", tenant="alice", value=10.0,
            objective=100.0, burn_rate=0.1, samples=3, breached=False,
        )
        burning = SLOStatus(
            slo="sr", kind="success-rate", tenant="bob", value=0.5,
            objective=0.9, burn_rate=5.0, samples=4, breached=True,
        )
        frame = render_top([make_rollup()], slo_statuses=[ok, burning])
        assert "[ ok ] qw" in frame
        assert "[BURN] sr" in frame
        assert "burn=5.00x (n=4)" in frame

    def test_alert_tail_shows_most_recent(self):
        alerts = [
            Alert(kind="slo-burn", time=float(i), subject=f"s{i}",
                  scope="service", severity="warning", message=f"m{i}",
                  sequence=i)
            for i in range(8)
        ]
        frame = render_top([make_rollup()], alerts=alerts, max_alerts=3)
        assert "Recent alerts (last 3):" in frame
        assert "s7: m7" in frame
        assert "s4: m4" not in frame

    def test_perf_line(self):
        frame = render_top(
            [make_rollup()], perf={"perf.events_per_sec": 9000.0}
        )
        assert "perf: perf.events_per_sec=9000.0" in frame

    def test_frames_are_deterministic(self):
        kwargs = dict(rollups=[make_rollup()], now=60.0)
        assert render_top(**kwargs) == render_top(**kwargs)


class TestDataPlaneColumns:
    def test_byte_columns_render(self):
        frame = render_top([
            TenantRollup(tenant="alice", bytes_in=2 * 1024 * 1024, bytes_out=1024)
        ])
        assert "B-IN" in frame and "B-OUT" in frame
        assert "2.0 MiB" in frame
        assert "1.0 KiB" in frame

    def test_zero_bytes_render_as_dash(self):
        frame = render_top([TenantRollup(tenant="idle")])
        row = next(line for line in frame.splitlines() if line.startswith("idle"))
        assert " - " in row or row.endswith("-")
