"""Tests for the typed alert records, rules and JSONL writer."""

import io
import json

import pytest

from repro.observability.alerts import (
    ALERT_KINDS,
    Alert,
    AlertError,
    AlertRules,
    JsonlAlertWriter,
    alert_sort_key,
    alerts_from_jsonl,
    alerts_to_jsonl,
)
from repro.observability.health import HealthThresholds


class TestAlert:
    def test_unknown_kind_rejected(self):
        with pytest.raises(AlertError, match="unknown alert kind"):
            Alert(kind="meltdown", time=1.0, subject="ce0")

    def test_round_trip(self):
        alert = Alert(
            kind="blackhole",
            time=12.5,
            subject="site01-ce",
            scope="ce",
            severity="critical",
            message="fails fast",
            sequence=3,
            attributes={"fault_rate": 0.9},
        )
        assert Alert.from_dict(alert.to_dict()) == alert

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(AlertError, match="malformed"):
            Alert.from_dict({"kind": "straggler"})  # missing time/subject

    def test_sort_key_is_total_at_equal_timestamps(self):
        # two alerts at the same simulated instant: the emission
        # sequence makes the order deterministic
        a = Alert(kind="straggler", time=5.0, subject="ce0", sequence=1)
        b = Alert(kind="blackhole", time=5.0, subject="ce1", sequence=0)
        c = Alert(kind="fault-burst", time=4.0, subject="ce2", sequence=9)
        assert sorted([a, b, c], key=alert_sort_key) == [c, b, a]

    def test_jsonl_round_trip(self):
        alerts = [
            Alert(kind=kind, time=float(i), subject=f"ce{i}", sequence=i)
            for i, kind in enumerate(ALERT_KINDS)
        ]
        assert alerts_from_jsonl(alerts_to_jsonl(alerts)) == alerts

    def test_jsonl_rejects_non_alert_lines(self):
        with pytest.raises(AlertError, match="not an alert record"):
            alerts_from_jsonl('{"foo": 1}')
        with pytest.raises(AlertError, match="not valid JSON"):
            alerts_from_jsonl("{broken")

    def test_malformed_record_names_its_line(self):
        with pytest.raises(AlertError, match="line 2 is not an alert record: .*'time'"):
            alerts_from_jsonl('\n{"kind": "straggler"}')


class TestAlertRules:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlertRules(fault_burst_count=0)
        with pytest.raises(ValueError):
            AlertRules(fault_burst_window=0.0)
        with pytest.raises(ValueError):
            AlertRules(eta_blowout_factor=1.0)

    def test_health_thresholds_mirror(self):
        rules = AlertRules(straggler_z=2.0, min_samples=7, blackhole_ttf_floor=60.0)
        thresholds = rules.health_thresholds()
        assert isinstance(thresholds, HealthThresholds)
        assert thresholds.straggler_z == 2.0
        assert thresholds.min_samples == 7
        assert thresholds.blackhole_ttf_floor == 60.0


class TestJsonlAlertWriter:
    def _alert(self, i=0):
        return Alert(kind="fault-burst", time=float(i), subject="ce0", sequence=i)

    def test_flushes_every_line_mid_run(self, tmp_path):
        # a concurrent reader (tail -f) must see each alert immediately,
        # before the writer is closed
        path = tmp_path / "alerts.jsonl"
        writer = JsonlAlertWriter(path)
        writer(self._alert(0))
        writer(self._alert(1))
        mid_run = alerts_from_jsonl(path.read_text())
        assert [a.sequence for a in mid_run] == [0, 1]
        writer.close()
        assert writer.lines_written == 2

    def test_file_like_destination_is_caller_owned(self):
        buffer = io.StringIO()
        with JsonlAlertWriter(buffer) as writer:
            writer(self._alert())
        assert not buffer.closed  # close() must not close a borrowed handle
        assert json.loads(buffer.getvalue())["kind"] == "fault-burst"

    def test_context_manager_closes_owned_file(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        with JsonlAlertWriter(path) as writer:
            writer(self._alert())
        assert len(alerts_from_jsonl(path.read_text())) == 1
