"""Checks of the trajectory benchmark itself (smoke sizes).

Run with ``PYTHONPATH=src python -m pytest benchmarks/trajectory -q``; the
tier-1 suite (``testpaths = ["tests"]``) does not collect this file.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def script(name: str, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, name), *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )


def test_benchmark_json_keeps_to_the_schema():
    doc = benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/trajectory"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in doc["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """One smoke run of every workload in each mode: {trace: (results, records)}."""
    runs = {}
    for trace in (0, 1):
        out = tmp_path_factory.mktemp("trajectory") / f"trace{trace}.jsonl"
        done = script(
            "run.py", "--workload", "all", "--seed", "7", "--smoke",
            "--trace", str(trace), "--out", str(out),
        )
        assert done.returncode == 0, done.stdout[-4000:]
        results = [
            json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')
        ]
        records = [json.loads(line) for line in out.read_text().splitlines()]
        runs[trace] = (results, records)
    return runs


@pytest.mark.parametrize("trace,declared_in", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_and_nothing_else_is_emitted(smoke_records, trace, declared_in):
    doc = benchmark()
    declared = {metric["name"]: metric["unit"] for metric in doc[declared_in]}
    results, records = smoke_records[trace]
    assert [record["workload"] for record in records] == [w["name"] for w in doc["workloads"]]
    assert len(results) == len(doc["workloads"])
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))
            if trace == 0:
                assert metric["value"] > 0  # end-to-end metrics are never 0


def test_untraced_run_prints_the_locally_gated_metrics(smoke_records):
    _, records = smoke_records[0]
    for record in records:
        emitted = set(record["metrics"])
        assert {"sim_makespan_s", "failed_share"} <= emitted
        assert ("observed_overhead_ratio" in emitted) == (record["workload"] == "observed_400")


def test_traced_counts_tile_and_bypassed_layers_read_zero(smoke_records):
    _, records = smoke_records[1]
    by_name = {record["workload"]: record["metrics"] for record in records}
    for metrics in by_name.values():
        assert metrics["trace.tiling_error"]["value"] <= 0.01
        assert metrics["sim.engine.step.calls"]["value"] > 0
    chaos, sweep = by_name["chaos_200"], by_name["paper_sweep"]
    assert chaos["grid.middleware.stage_in_time.calls"]["value"] == 0
    assert chaos["grid.middleware.entity_down.calls"]["value"] > 0
    assert sweep["grid.middleware.entity_down.calls"]["value"] == 0
    assert sweep["grid.middleware.stage_in_time.calls"]["value"] > 0
    assert by_name["cache_rerun"]["cache.hits"]["value"] > 0
    assert by_name["scale_1k"]["cache.hits"]["value"] == 0
    assert by_name["service_24"]["service.store.put_run.calls"]["value"] > 0
    assert by_name["observed_400"]["observability.monitor.on_end.calls"]["value"] > 0


def test_compare_passes_a_set_against_itself_and_trips_on_a_tampered_wall(smoke_records, tmp_path):
    _, records = smoke_records[0]
    for record in records:
        record["smoke"] = False  # compare.py reads full-size records only
    same, slower = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    same.write_text("".join(json.dumps(record) + "\n" for record in records))
    for record in records:
        if record["workload"] == "scale_1k":
            record["metrics"]["wall_s"]["value"] *= 1.5
    slower.write_text("".join(json.dumps(record) + "\n" for record in records))

    assert script("compare.py", str(same), str(same)).returncode == 0
    tripped = script("compare.py", str(same), str(slower))
    assert tripped.returncode == 1
    flagged = [line for line in tripped.stdout.splitlines() if "REGRESSION" in line]
    assert len(flagged) == 1 and flagged[0].startswith("scale_1k") and "wall_s" in flagged[0]
