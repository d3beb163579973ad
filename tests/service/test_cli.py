"""Smoke tests for the ``python -m repro.service`` command line."""

import json

import pytest

import repro.service.__main__ as cli
from repro.service import SQLiteStateStore
from repro.service.__main__ import main


def test_submit_drain_status_cancel_round_trip(tmp_path):
    state = str(tmp_path / "state")
    base = ["--state", state]
    assert main(base + ["tenants", "--add", "a", "--weight", "2"]) == 0
    assert main(base + ["tenants"]) == 0
    assert main(base + ["submit", "--tenant", "a", "--pairs", "1"]) == 0
    assert main(base + ["status"]) == 0
    assert main(base + ["drain"]) == 0
    assert main(base + ["status", "svc-0001"]) == 0
    # cancelling a finished run is a reported no-op, not an error
    assert main(base + ["cancel", "svc-0001"]) == 0
    assert main(base + ["status", "svc-9999"]) == 1


@pytest.mark.parametrize("command", [["status", "svc-9999"], ["audit", "svc-9999", "--json"]])
def test_unknown_run_error_goes_to_stderr_not_stdout(tmp_path, capsys, command):
    # stdout may be redirected into a JSON(L) file; the error must not land there
    assert main(["--state", str(tmp_path / "state"), *command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown run 'svc-9999'" in captured.err


def test_submit_for_unknown_tenant_fails_cleanly(tmp_path):
    base = ["--state", str(tmp_path / "state")]
    assert main(base + ["submit", "--tenant", "nobody"]) == 2


def test_demo_replays_a_traffic_script(tmp_path, monkeypatch):
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
                {"tenant": "a", "n_items": 1, "not_before": 100.0},
            ],
        },
    )
    code = main(["--store", "memory", "--state", str(tmp_path / "unused"), "demo"])
    assert code == 0


def test_bad_slo_spec_is_a_usage_error_before_anything_opens(tmp_path, capsys):
    state = tmp_path / "state"
    with pytest.raises(SystemExit) as excinfo:
        main(["--state", str(state), "--slo", "bogus", "drain"])
    assert excinfo.value.code == 2
    assert "--slo" in capsys.readouterr().err
    assert not state.exists()


def test_status_prints_the_stored_run_record(tmp_path, capsys):
    base = ["--state", str(tmp_path / "state")]
    assert main(base + ["tenants", "--add", "a"]) == 0
    assert main(base + ["submit", "--tenant", "a", "--pairs", "1"]) == 0
    capsys.readouterr()
    assert main(base + ["status", "svc-0001"]) == 0
    document = json.loads(capsys.readouterr().out)
    store = SQLiteStateStore(str(tmp_path / "state"))
    try:
        assert document == store.get_run("svc-0001").to_dict()
    finally:
        store.close()
