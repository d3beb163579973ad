"""CLI tests for bronze --profile (the one profile recorder), the profile
family that reads its files, and attribution."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.experiments.__main__ import main
from repro.grid.testbeds import egee_like_testbed
from repro.observability.profiling import (
    Profile,
    Profiler,
    parse_collapsed,
    parse_speedscope,
    wall_clock,
)
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

RUN = ["--pairs", "2", "--config", "SP+DP", "--seed", "42"]
SRC = str(Path(__file__).resolve().parents[2] / "src")


def record_profile(tmp_path, name="profile.json"):
    path = tmp_path / name
    assert main(["bronze", *RUN, "--profile", str(path)]) == 0
    return path


class TestProfileRecord:
    def test_writes_a_loadable_profile(self, capsys, tmp_path):
        path = record_profile(tmp_path)
        out = capsys.readouterr().out
        assert str(path) in out
        profile = Profile.load(path)
        assert profile.clock == "deterministic"
        assert "engine" in profile.by_component()

    def test_same_seed_is_byte_identical(self, tmp_path):
        first = record_profile(tmp_path, "a.json")
        second = record_profile(tmp_path, "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_byte_identical_across_hash_seeds(self, tmp_path):
        outputs = []
        for hash_seed in ("1", "987654321"):
            out = tmp_path / f"hash-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            subprocess.run(
                [sys.executable, "-m", "repro.experiments", "bronze",
                 *RUN, "--profile", str(out)],
                check=True, env=env, capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_wall_clock_opt_in(self, tmp_path):
        """Real timings are a Python API choice: the CLI records ticks."""
        engine = Engine()
        streams = RandomStreams(seed=42)
        grid = egee_like_testbed(engine, streams, n_sites=6, workers_per_ce=40,
                                 with_background_load=False)
        app = BronzeStandardApplication(engine, grid, streams)
        profiler = Profiler(clock=wall_clock)
        app.enact(OptimizationConfig.sp_dp(), n_pairs=2, profiler=profiler)
        path = profiler.snapshot().save(tmp_path / "wall.json")
        assert Profile.load(path).clock == "wall"


class TestProfileReport:
    def test_renders_component_table(self, capsys, tmp_path):
        path = record_profile(tmp_path)
        capsys.readouterr()
        assert main(["profile", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "component" in out
        assert "engine" in out and "enactor" in out

    def test_missing_profile_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["profile", "report", str(tmp_path / "absent.json")])


class TestProfileFlame:
    def test_collapsed_output_parses_strictly(self, capsys, tmp_path):
        path = record_profile(tmp_path)
        capsys.readouterr()
        assert main(["profile", "flame", str(path)]) == 0
        weights = parse_collapsed(capsys.readouterr().out)
        frames = {frame for stack in weights for frame in stack}
        assert "enactor.core.enactor:MoteurEnactor.run" in frames
        assert "engine.sim.engine:Engine.step" in frames

    def test_speedscope_output_parses_strictly(self, capsys, tmp_path):
        path = record_profile(tmp_path)
        flame = tmp_path / "flame.speedscope.json"
        assert main([
            "profile", "flame", str(path),
            "--format", "speedscope", "--out", str(flame),
        ]) == 0
        assert parse_speedscope(flame.read_text())


class TestProfileDiff:
    def test_names_the_regressed_component(self, capsys, tmp_path):
        base = record_profile(tmp_path, "base.json")
        slow = tmp_path / "slow.json"
        document = json.loads(base.read_text())
        # triple every enactor scope's self time: the diff must name it
        nodes = list(document["root"]["children"])
        while nodes:
            node = nodes.pop()
            nodes.extend(node["children"])
            if node["name"].startswith("enactor."):
                node["self"] *= 3
        slow.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["profile", "diff", str(base), str(slow)]) == 0
        out = capsys.readouterr().out
        assert "\ntop regressed component: enactor (" in out


class TestBronzeProfileFlag:
    def test_bronze_profile_writes_file(self, capsys, tmp_path):
        path = tmp_path / "bronze.json"
        assert main([
            "bronze", "--pairs", "2", "--config", "SP+DP",
            "--profile", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out  # standard report unchanged
        assert str(path) in out
        assert Profile.load(path).total_time > 0


class TestCompareRunsAttribution:
    """compare-runs attributes a change to the keys that moved; host
    cost lives in profile files, attributed by ``profile diff``."""

    def record_row(self, tmp_path, name):
        out = tmp_path / name
        assert main([
            "record-run", *RUN, "--store", str(tmp_path / "store"),
            "--out", str(out),
        ]) == 0
        return out

    def test_rows_leave_counters_to_profiles(self, capsys, tmp_path):
        row = self.record_row(tmp_path, "row.json")
        counters = json.loads(row.read_text())["counters"]
        assert [key for key in counters if key.startswith("perf.")] == []
        components = Profile.load(record_profile(tmp_path)).by_component()
        assert components["engine"]["self"] > 0
        assert components["engine"]["calls"] > 0

    def test_tampered_candidate_is_attributed(self, capsys, tmp_path):
        row = self.record_row(tmp_path, "row.json")
        document = json.loads(row.read_text())
        document["phase_totals"]["execute"] *= 3
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "compare-runs", str(row), str(slow), "--store", str(tmp_path / "store"),
        ]) == 1
        out = capsys.readouterr().out
        assert "\nchanged:\n  phase_totals.execute: " in out
        assert "verdict: 1 key(s) changed" in out
