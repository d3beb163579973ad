"""Tests for the scope-tree profiler and the Profile snapshot."""

import gc
import json
import sys

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core.config import OptimizationConfig
from repro.experiments.calibration import make_experiment_grid

from repro.observability.profiling import (
    ManualClock,
    Profile,
    Profiler,
    ProfilerError,
    ScopeStats,
    TickClock,
    wall_clock,
)
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

# scope names as the setprofile hook spells them
STEP = "engine.sim.engine:Engine.step"
INVOKE = "enactor.core.enactor:MoteurEnactor._invoke"
LOOKUP = "cache.cache:ResultCache.lookup"
RANK = "broker.grid.broker:ResourceBroker._choose"


def make_profiler():
    """A profiler over a manual clock the test can steer."""
    clock = ManualClock()
    return Profiler(clock=clock), clock


class TestScopeAccounting:
    def test_single_scope_self_equals_cum(self):
        profiler, clock = make_profiler()
        profiler.enter(STEP)
        clock.advance(2.0)
        profiler.exit()
        node = profiler.root.children[STEP]
        assert node.calls == 1
        assert node.cum == pytest.approx(2.0)
        assert node.self_time == pytest.approx(2.0)

    def test_child_time_subtracted_from_parent_self(self):
        profiler, clock = make_profiler()
        profiler.enter(STEP)
        clock.advance(1.0)
        profiler.enter(INVOKE)
        clock.advance(3.0)
        profiler.exit()
        clock.advance(0.5)
        profiler.exit()
        step = profiler.root.children[STEP]
        prepare = step.children[INVOKE]
        assert step.cum == pytest.approx(4.5)
        assert step.self_time == pytest.approx(1.5)
        assert prepare.cum == prepare.self_time == pytest.approx(3.0)

    def test_repeat_calls_share_one_node(self):
        profiler, clock = make_profiler()
        for _ in range(5):
            profiler.enter(RANK)
            clock.advance(1.0)
            profiler.exit()
        assert list(profiler.root.children) == [RANK]
        node = profiler.root.children[RANK]
        assert node.calls == 5
        assert node.cum == pytest.approx(5.0)

    def test_same_name_under_different_parents_is_two_nodes(self):
        profiler, clock = make_profiler()
        with profiler.scope("a"):
            with profiler.scope(LOOKUP):
                clock.advance(1.0)
        with profiler.scope(LOOKUP):
            clock.advance(2.0)
        assert profiler.root.children["a"].children[LOOKUP].cum == (
            pytest.approx(1.0)
        )
        assert profiler.root.children[LOOKUP].cum == pytest.approx(2.0)

    def test_exit_without_enter_raises(self):
        profiler, _ = make_profiler()
        with pytest.raises(ProfilerError, match="no open scope"):
            profiler.exit()

    def test_depth_tracks_open_scopes(self):
        profiler, _ = make_profiler()
        assert profiler.depth == 0
        profiler.enter("a")
        profiler.enter("b")
        assert profiler.depth == 2
        profiler.exit()
        profiler.exit()
        assert profiler.depth == 0

    def test_scope_context_manager_closes_on_exception(self):
        profiler, _ = make_profiler()
        with pytest.raises(RuntimeError, match="boom"):
            with profiler.scope("a"):
                raise RuntimeError("boom")
        assert profiler.depth == 0
        assert profiler.root.children["a"].calls == 1

    def test_count_accumulates(self):
        # object churn is a call count: heap pushes are Engine.schedule calls
        engine = Engine()
        profiler = Profiler(clock=TickClock())
        with profiler.active():
            for delay in range(5):
                engine.timeout(float(delay))
            engine.run()
        pushes = sum(
            node.calls
            for _path, node in profiler.snapshot().walk()
            if node.name.endswith("Engine.schedule")
        )
        assert pushes == engine.events_scheduled == 5


class TestSnapshot:
    def test_root_cum_is_sum_of_top_level_children(self):
        profiler, clock = make_profiler()
        with profiler.scope("a"):
            clock.advance(1.0)
        with profiler.scope("b"):
            clock.advance(2.0)
        profile = profiler.snapshot()
        assert profile.total_time == pytest.approx(3.0)

    def test_snapshot_is_a_deep_copy(self):
        profiler, clock = make_profiler()
        with profiler.scope("a"):
            clock.advance(1.0)
        profile = profiler.snapshot()
        with profiler.scope("a"):
            clock.advance(1.0)
        assert profile.root.children["a"].calls == 1

    def test_snapshot_with_open_scopes_keeps_completed_calls(self):
        profiler, clock = make_profiler()
        with profiler.scope("done"):
            clock.advance(1.0)
        profiler.enter("open")
        profile = profiler.snapshot()
        assert profile.root.children["done"].calls == 1
        assert "open" not in profile.root.children or (
            profile.root.children["open"].calls == 0
        )
        profiler.exit()

    def test_clock_kind_recorded(self):
        assert Profiler(clock=TickClock()).snapshot().clock == "deterministic"
        assert Profiler(clock=wall_clock).snapshot().clock == "wall"
        assert Profiler(clock=ManualClock()).snapshot().clock == "custom"

    def test_label_override(self):
        profiler = Profiler(clock=TickClock(), label="default")
        assert profiler.snapshot().label == "default"
        assert profiler.snapshot(label="special").label == "special"


class TestProfileQueries:
    def build(self):
        profiler, clock = make_profiler()
        with profiler.scope(STEP):
            clock.advance(1.0)
            with profiler.scope(INVOKE):
                clock.advance(2.0)
            with profiler.scope(LOOKUP):
                clock.advance(0.5)
        return profiler.snapshot()

    def test_walk_yields_paths_in_name_order(self):
        profile = self.build()
        paths = [path for path, _node in profile.walk()]
        assert paths == [
            (STEP,),
            (STEP, LOOKUP),
            (STEP, INVOKE),
        ]

    def test_by_component_sums_self_times(self):
        table = self.build().by_component()
        assert set(table) == {"engine", "enactor", "cache"}
        assert table["engine"]["self"] == pytest.approx(1.0)
        assert table["enactor"]["self"] == pytest.approx(2.0)
        assert table["cache"]["self"] == pytest.approx(0.5)

    def test_hottest_ranks_by_self_time(self):
        hottest = self.build().hottest(2)
        assert [path[-1] for path, _ in hottest] == [
            INVOKE,
            STEP,
        ]


class TestSerialization:
    def test_json_roundtrip(self):
        profiler, clock = make_profiler()
        with profiler.scope(STEP):
            clock.advance(1.0)
        profile = profiler.snapshot(label="roundtrip")
        loaded = Profile.from_dict(json.loads(profile.to_json()))
        assert loaded.to_json() == profile.to_json()
        assert json.loads(profile.to_json())["format"] == 2
        assert "counters" not in profile.to_dict()

    def test_save_and_load(self, tmp_path):
        profiler, clock = make_profiler()
        with profiler.scope("a"):
            clock.advance(1.0)
        path = profiler.snapshot().save(tmp_path / "deep" / "profile.json")
        assert Profile.load(path).root.children["a"].calls == 1

    def test_load_missing_file_raises_profiler_error(self, tmp_path):
        with pytest.raises(ProfilerError, match="cannot read"):
            Profile.load(tmp_path / "absent.json")

    def test_load_malformed_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProfilerError):
            Profile.load(bad)

    def test_unsupported_format_rejected(self):
        with pytest.raises(ProfilerError, match="format"):
            Profile.from_dict({"format": 99, "root": {}})

    def test_malformed_scope_node_rejected(self):
        with pytest.raises(ProfilerError, match="malformed scope"):
            ScopeStats.from_dict({"name": "a"})


def resumable(n):
    """A generator defined under ``tests``: outside ``repro``."""
    for value in range(n):
        yield value


class TestHook:
    """The ``sys.setprofile`` hook behind :meth:`Profiler.active`."""

    def profile_engine(self, run):
        """Profile *run(engine)* on a fresh engine; returns the Profile."""
        engine = Engine()
        profiler = Profiler(clock=TickClock())
        with profiler.active():
            run(engine)
        return profiler.snapshot()

    def test_active_restores_the_previous_hook(self):
        def outer(frame, event, arg):
            pass

        previous = sys.getprofile()
        sys.setprofile(outer)
        try:
            with Profiler(clock=TickClock()).active():
                assert sys.getprofile() is not outer
            assert sys.getprofile() is outer
            with pytest.raises(RuntimeError):
                with Profiler(clock=TickClock()).active():
                    raise RuntimeError("boom")
            assert sys.getprofile() is outer
        finally:
            sys.setprofile(previous)

    def test_cyclic_collector_paused_inside_the_block(self):
        # a collection inside the block would finalize some other run's
        # suspended generators under whichever scope happened to allocate
        assert gc.isenabled()
        with Profiler(clock=TickClock()).active():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_tick_profiles_do_not_depend_on_call_order(self):
        def build(order):
            profiler = Profiler(clock=TickClock())
            for name in order:
                with profiler.scope(name):
                    pass
            return profiler.snapshot().to_json()

        names = [STEP, INVOKE, RANK] * 50
        assert build(names) == build(sorted(names))

    def test_scope_names_follow_the_prefix_table(self):
        def run(engine):
            engine.timeout(1.0)
            engine.run()

        profile = self.profile_engine(run)
        names = {node.name for _path, node in profile.walk()}
        qualname = "Engine.step" if sys.version_info >= (3, 11) else "step"
        assert f"engine.sim.engine:{qualname}" in names
        assert {node.component for _path, node in profile.walk()} == {"engine"}

    def test_names_are_stable_within_one_interpreter(self):
        def run(engine):
            engine.timeout(1.0)
            engine.run()

        first = self.profile_engine(run)
        second = self.profile_engine(run)
        assert first.to_json() == second.to_json()

    def test_frames_outside_repro_open_no_scope(self):
        def run(engine):
            list(resumable(3))
            engine.timeout(0.0)

        profile = self.profile_engine(run)
        assert all(
            node.name.startswith("engine.") for _path, node in profile.walk()
        )

    def test_resumed_generator_bodies_are_their_own_scopes(self):
        def body(engine):
            for _ in range(3):
                yield engine.timeout(1.0)

        def run(engine):
            engine.process(body(engine))
            engine.run()

        profile = self.profile_engine(run)
        resumes = [
            node
            for path, node in profile.walk()
            if node.name.endswith("Process._resume")
        ]
        assert sum(node.calls for node in resumes) == 4

    def test_starting_mid_stack_ignores_unopened_returns(self):
        engine = Engine()
        profiler = Profiler(clock=TickClock())

        def body():
            # the hook starts inside this process body, whose frame and
            # callers opened no scope: their returns must not pop one,
            # and scopes open when the block ends are closed there
            with profiler.active():
                yield engine.timeout(1.0)
            yield engine.timeout(1.0)

        engine.process(body())
        engine.run()
        assert profiler.depth == 0
        profile = profiler.snapshot()
        assert total_self(profile) == pytest.approx(profile.total_time)

    def test_self_times_sum_to_root_on_a_real_enactment(self):
        engine = Engine()
        streams = RandomStreams(seed=42)
        app = BronzeStandardApplication(
            engine, make_experiment_grid(engine, streams), streams
        )
        profiler = Profiler(clock=TickClock())
        app.enact(OptimizationConfig.sp_dp(), n_pairs=2, profiler=profiler)
        profile = profiler.snapshot()
        assert profiler.depth == 0
        assert total_self(profile) == pytest.approx(profile.total_time)
        assert {"engine", "grid", "enactor", "broker"} <= set(profile.by_component())


def total_self(profile):
    return sum(node.self_time for _path, node in profile.walk())
