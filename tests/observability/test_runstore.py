"""Tests for the run-history store and the exact comparison."""

import json

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.experiments.__main__ import main
from repro.observability import InstrumentationBus
from repro.observability.runstore import (
    KeyChange,
    RunStore,
    RunStoreError,
    RunSummary,
    compare,
    summarize_run,
)


def make_summary(**overrides):
    base = dict(
        workflow="bronze-standard",
        policy="SP+DP",
        makespan=100.0,
        n_items=4,
        seed=42,
        phase_totals={"execute": 70.0, "queue": 30.0},
        drift={"relative_error": 0.05},
        cache={"hit_rate": 0.9},
        counters={"grid.jobs.submitted": 24.0},
    )
    base.update(overrides)
    return RunSummary(**base)


class TestStore:
    def test_append_assigns_sequential_ids(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.append(make_summary()).run_id == "run-0001"
        assert store.append(make_summary()).run_id == "run-0002"
        assert store.run_ids() == ["run-0001", "run-0002"]
        assert len(store) == 2

    def test_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        written = store.append(make_summary(note="hello"))
        loaded = store.get(written.run_id)
        assert loaded == written

    def test_latest_and_policy_filter(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(make_summary(policy="NOP"))
        store.append(make_summary(policy="SP+DP"))
        store.append(make_summary(policy="NOP", makespan=90.0))
        assert store.latest().makespan == 90.0
        assert store.latest(policy="SP+DP").policy == "SP+DP"
        assert store.resolve("latest:NOP").makespan == 90.0

    def test_resolve_file_path(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(make_summary().to_dict()))
        loaded = RunStore(tmp_path / "store").resolve(str(path))
        assert loaded.makespan == 100.0

    def test_unknown_run_raises(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(RunStoreError, match="no runs"):
            store.latest()
        with pytest.raises(RunStoreError, match="no run"):
            store.get("run-0042")

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(RunStoreError, match="not JSON"):
            RunSummary.from_file(path)
        document = make_summary().to_dict()
        document["counters"] = [1.0]
        path.write_text(json.dumps(document))
        with pytest.raises(RunStoreError, match="malformed run summary"):
            RunSummary.from_file(path)


class TestCompare:
    def test_identical_runs_are_ok(self):
        comparison = compare(make_summary(), make_summary())
        assert comparison.ok
        assert "makespan" in comparison.checked
        assert "phase_totals.execute" in comparison.checked

    def test_inflated_candidate_is_flagged(self):
        candidate = make_summary(
            makespan=150.0, phase_totals={"execute": 105.0, "queue": 45.0}
        )
        comparison = compare(make_summary(), candidate)
        assert not comparison.ok
        assert comparison.changes == (
            KeyChange("makespan", 100.0, 150.0),
            KeyChange("phase_totals.execute", 70.0, 105.0),
            KeyChange("phase_totals.queue", 30.0, 45.0),
        )

    def test_policy_mismatch_raises(self):
        with pytest.raises(RunStoreError, match="cannot compare across policy"):
            compare(make_summary(), make_summary(policy="NOP"))

    def test_size_mismatch_raises(self):
        with pytest.raises(RunStoreError, match="input sizes"):
            compare(make_summary(), make_summary(n_items=8))

    def test_hit_rate_drop_is_a_regression(self):
        candidate = make_summary(cache={"hit_rate": 0.5})
        comparison = compare(make_summary(), candidate)
        assert comparison.changes == (KeyChange("cache.hit_rate", 0.9, 0.5),)

    def test_extra_jobs_over_budget(self):
        candidate = make_summary(counters={"grid.jobs.submitted": 25.0})
        comparison = compare(make_summary(), candidate)
        assert [c.key for c in comparison.changes] == ["counters.grid.jobs.submitted"]

    def test_provenance_is_not_compared(self):
        candidate = make_summary(run_id="run-0009", note="other", created_at="later")
        assert compare(make_summary(), candidate).ok

    def test_float_tolerance_absorbs_only_last_bits(self):
        drift = {"relative_error": 0.05, "y_intercept": 6.0}
        noisy = make_summary(drift={"relative_error": 0.05, "y_intercept": 5.999999999999883})
        assert compare(make_summary(drift=drift), noisy).ok
        moved = make_summary(drift={"relative_error": 0.05, "y_intercept": 6.000001})
        assert not compare(make_summary(drift=drift), moved).ok


def full_document():
    """A summary document carrying every counter a CI tamper step edits."""
    return make_summary(
        counters={
            "grid.jobs.submitted": 24.0,
            "bytes.total": 1.0e8,
            "bytes.enactor_moved": 4.0e6,
            "bytes.repair": 0.0,
            "monitor.alerts.total": 0.0,
            "monitor.alerts.se-outage": 0.0,
        }
    ).to_dict()


def scale(section, factor, *keys):
    def tamper(doc):
        for key in keys:
            doc[section][key] *= factor
    return tamper


def inflate_run(doc):
    doc["makespan"] *= 1.5
    doc["phase_totals"] = {k: v * 1.5 for k, v in doc["phase_totals"].items()}


def new_alerts(doc):
    doc["counters"]["monitor.alerts.total"] += 2.0
    doc["counters"]["monitor.alerts.blackhole"] = 2.0


def chaos(doc):
    counters = doc["counters"]
    counters["monitor.alerts.total"] += 3.0
    counters["monitor.alerts.se-outage"] = 3.0
    counters["bytes.total"] *= 1.3
    counters["bytes.repair"] = counters["bytes.total"] * 0.3


def faster(doc):
    doc["makespan"] *= 0.9


def extra_job(doc):
    doc["counters"]["grid.jobs.submitted"] += 1.0


def add_counter(doc):
    doc["counters"]["grid.transfer.retries"] = 0.0


#: every tamper a CI step or a test applies, and the keys it must name
TAMPERS = {
    "makespan-and-phases-x1.5": (
        inflate_run, ["makespan", "phase_totals.execute", "phase_totals.queue"]
    ),
    "two-new-alerts": (
        new_alerts, ["counters.monitor.alerts.total", "counters.monitor.alerts.blackhole"]
    ),
    "bytes-x1.2": (
        scale("counters", 1.2, "bytes.total", "bytes.enactor_moved"),
        ["counters.bytes.total", "counters.bytes.enactor_moved"],
    ),
    "chaos-counters": (
        chaos,
        [
            "counters.monitor.alerts.total",
            "counters.monitor.alerts.se-outage",
            "counters.bytes.total",
            "counters.bytes.repair",
        ],
    ),
    "hit-rate-drop": (scale("cache", 0.5, "hit_rate"), ["cache.hit_rate"]),
    "one-extra-job": (extra_job, ["counters.grid.jobs.submitted"]),
    "makespan-x0.9": (faster, ["makespan"]),
    "key-on-one-side": (add_counter, ["counters.grid.transfer.retries"]),
}


class TestCompareRunsCli:
    def compare_files(self, tmp_path, baseline, candidate):
        paths = []
        for name, doc in (("baseline.json", baseline), ("candidate.json", candidate)):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return main(["compare-runs", *paths, "--store", str(tmp_path / "store")])

    def test_identical_summaries_exit_zero(self, capsys, tmp_path):
        assert self.compare_files(tmp_path, full_document(), full_document()) == 0
        assert "verdict: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_tamper_is_named(self, capsys, tmp_path, name):
        tamper, keys = TAMPERS[name]
        candidate = full_document()
        tamper(candidate)
        assert self.compare_files(tmp_path, full_document(), candidate) == 1
        out = capsys.readouterr().out
        for key in keys:
            assert f"  {key}: " in out
        assert f"verdict: {len(keys)} key(s) changed" in out


class TestSummarizeRun:
    def test_summary_from_a_real_run(self, engine, egee_grid, streams, tmp_path):
        app = BronzeStandardApplication(engine, egee_grid, streams)
        bus = InstrumentationBus()
        collector = bus.collector()
        result = app.enact(
            OptimizationConfig.sp_dp(), n_pairs=2, instrumentation=bus
        )
        summary = summarize_run(
            result,
            spans=collector.spans,
            records=egee_grid.completed_records(),
            n_items=2,
            seed=1234,
            note="test",
        )
        assert summary.workflow == "bronze-standard"
        assert summary.policy == "SP+DP"
        assert summary.makespan == pytest.approx(result.makespan)
        assert sum(summary.phase_totals.values()) == pytest.approx(
            result.makespan, rel=1e-4
        )
        assert summary.counters["grid.jobs.submitted"] == 12.0
        assert summary.critical_path  # the gating services were recorded
        # round-trip through the store preserves everything
        store = RunStore(tmp_path / "store")
        store.append(summary)
        assert compare(store.latest(), summary).ok
        # the chaos/durability ledger is zero-filled on healthy runs, so
        # pre-chaos baselines and chaotic rows share one schema
        for key in (
            "bytes.repair",
            "grid.transfer.failures",
            "grid.transfer.retries",
            "grid.transfer.outage_waits",
            "grid.repair.transfers",
            "grid.replicas.lost",
            "grid.replicas.quarantined",
            "grid.se.outage_windows",
            "monitor.alerts.se-outage",
            "monitor.alerts.replica-corruption",
            "monitor.alerts.transfer-storm",
        ):
            assert summary.counters[key] == 0.0
