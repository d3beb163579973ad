"""The cache wired into the enactor: warm re-execution, single-flight.

These are the acceptance tests of the subsystem: a warm run over the
same input data set replays every invocation from the cache — zero grid
jobs, zero makespan on an ideal grid — and produces identical sink
outputs.  A shared in-flight registry de-duplicates identical concurrent
invocations across enactors sharing one engine.
"""

import pickle

import pytest

import repro.util.codec as codec
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.cache import FileStore, InMemoryStore, ResultCache
from repro.core import MoteurEnactor, OptimizationConfig
from repro.grid.testbeds import cluster_testbed, ideal_testbed
from repro.services.base import LocalService
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
)
from repro.services.wrapper import GenericWrapperService
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.workflow.builder import WorkflowBuilder


def wrapped(engine, grid, name, compute=10.0, program=None, calls=None):
    def counting_program(x):
        if calls is not None:
            calls.append(name)
        return {"y": (x or 0) + 1}

    descriptor = ExecutableDescriptor(
        name=name,
        access=AccessMethod("URL", "http://host"),
        value=name,
        inputs=(InputSpec("x", "-i", AccessMethod("GFN")),),
        outputs=(OutputSpec("y", "-o"),),
    )
    return GenericWrapperService(
        engine, grid, descriptor,
        program=program or counting_program,
        compute_time=compute,
    )


def chain_workflow(engine, grid, calls=None, synchronization=False):
    """in -> A -> B -> out over two wrapped grid services.

    With *synchronization*, B is a barrier summing A's whole stream.
    """
    a = wrapped(engine, grid, "A", calls=calls)
    b = wrapped(engine, grid, "B", calls=calls)
    if synchronization:

        def gather(x):
            if calls is not None:
                calls.append("B")
            return {"y": sum(x) + 1}

        b = wrapped(engine, grid, "B", program=gather)
    return (
        WorkflowBuilder()
        .source("in")
        .service("A", a)
        .service("B", b, synchronization=synchronization)
        .sink("out")
        .connect("in:output", "A:x")
        .connect("A:y", "B:x")
        .connect("B:y", "out:input")
        .build()
    )


def run_once(config, cache, dataset, calls=None):
    """One enactment on a fresh engine + ideal grid (simulates a new process)."""
    engine = Engine()
    grid = ideal_testbed(engine)
    workflow = chain_workflow(engine, grid, calls=calls)
    result = MoteurEnactor(engine, workflow, config, cache=cache).run(dataset)
    return result, grid


class TestWarmReexecution:
    def test_second_run_is_all_hits_zero_jobs(self):
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp()
        dataset = {"in": [1, 2, 3]}

        cold, cold_grid = run_once(config, cache, dataset)
        warm, warm_grid = run_once(config, cache, dataset)

        assert len(cold_grid.records) == 6  # 2 services x 3 items
        assert len(warm_grid.records) == 0
        assert warm.makespan == 0.0
        assert cold.makespan > 0.0
        # identical results, byte for byte
        assert pickle.dumps(sorted(warm.output_values("out"))) == pickle.dumps(
            sorted(cold.output_values("out"))
        )
        assert warm.cache_stats.total.hits == 6
        assert warm.cache_stats.total.misses == 0
        assert warm.cache_stats.hit_rate == 1.0
        assert cold.cache_stats.total.misses == 6
        assert cold.cache_stats.total.stores == 6

    def test_cached_events_have_kind_and_no_jobs(self):
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.nop()
        run_once(config, cache, {"in": [5]})
        warm, _ = run_once(config, cache, {"in": [5]})
        kinds = warm.trace.count_by_kind()
        assert kinds == {"cached": 2}
        for event in warm.trace:
            assert event.job_ids == ()
            assert event.duration == 0.0

    @pytest.mark.cache_files
    def test_file_store_warm_run_across_processes(self, cache_dir):
        """Cold run persists, a *fresh* cache object on the same directory
        replays — the cross-process re-execution story."""
        config = OptimizationConfig.sp_dp()
        dataset = {"in": [10, 20]}
        cold_store, warm_store = FileStore(cache_dir), FileStore(cache_dir)
        try:
            cold, _ = run_once(config, ResultCache(store=cold_store), dataset)
            warm, warm_grid = run_once(config, ResultCache(store=warm_store), dataset)
        finally:
            cold_store.close()
            warm_store.close()
        assert len(warm_grid.records) == 0
        assert sorted(warm.output_values("out")) == sorted(cold.output_values("out"))
        assert warm.cache_stats.hit_rate == 1.0

    def test_partial_warm_run_executes_only_new_items(self):
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp()
        run_once(config, cache, {"in": [1, 2]})
        mixed, grid = run_once(config, cache, {"in": [1, 2, 3]})
        # only the new item's two invocations executed
        assert len(grid.records) == 2
        assert mixed.cache_stats.total.hits == 4
        assert mixed.cache_stats.total.misses == 2
        assert sorted(mixed.output_values("out")) == [3, 4, 5]

    def test_changed_input_value_misses(self):
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.nop()
        run_once(config, cache, {"in": [1]})
        warm, grid = run_once(config, cache, {"in": [2]})
        assert len(grid.records) == 2
        assert warm.cache_stats.total.hits == 0

    def test_grouped_chain_caches_as_one_entry(self):
        """Job grouping: the composite A;B invocation is ONE cache entry."""
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp_jg()
        cold, cold_grid = run_once(config, cache, {"in": [1, 2]})
        assert len(cache) == 2  # one grouped entry per item, not per stage
        warm, warm_grid = run_once(config, cache, {"in": [1, 2]})
        assert len(warm_grid.records) == 0
        assert warm.trace.count_by_kind() == {"cached": 2}
        assert sorted(warm.output_values("out")) == sorted(cold.output_values("out"))

    def test_synchronization_hits_despite_stream_order(self):
        """Sync barriers key on the token multiset, not arrival order."""
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp()

        def build(engine):
            grid = ideal_testbed(engine)
            a = wrapped(engine, grid, "A")
            sync = LocalService(
                engine, "collect", ("x",), ("y",),
                function=lambda x: {"y": sorted(v or 0 for v in x)},
            )
            workflow = (
                WorkflowBuilder()
                .source("in")
                .service("A", a)
                .service("collect", sync, synchronization=True)
                .sink("out")
                .connect("in:output", "A:x")
                .connect("A:y", "collect:x")
                .connect("collect:y", "out:input")
                .build()
            )
            return workflow, grid

        engine = Engine()
        workflow, grid = build(engine)
        cold = MoteurEnactor(engine, workflow, config, cache=cache).run({"in": [1, 2, 3]})

        engine2 = Engine()
        workflow2, grid2 = build(engine2)
        warm = MoteurEnactor(engine2, workflow2, config, cache=cache).run({"in": [1, 2, 3]})

        assert len(grid2.records) == 0
        assert warm.cache_stats.total.misses == 0
        assert warm.output_values("out") == cold.output_values("out")


class TestOneWalkPerDatum:
    """Counts, not clocks: the codec's top-level walk per datum."""

    def test_a_cold_run_walks_each_datum_once_and_a_warm_run_only_sources(
        self, cache_dir, monkeypatch
    ):
        n_pairs = 6
        sources = 3 * n_pairs + 1  # floating, reference and scale per pair; the method
        walks, stored = [], {}
        real_encode, real_put = codec.encode, ResultCache.put
        monkeypatch.setattr(
            codec, "encode", lambda value: walks.append(value) or real_encode(value)
        )

        def put(cache, key, service, outputs):
            stored.update((id(datum), datum) for datum in outputs.values())
            real_put(cache, key, service, outputs)

        monkeypatch.setattr(ResultCache, "put", put)

        def enact():
            engine = Engine()
            streams = RandomStreams(seed=42)
            app = BronzeStandardApplication(engine, cluster_testbed(engine, streams), streams)
            with FileStore(cache_dir) as store:
                cache = ResultCache(store)
                return app.enact(OptimizationConfig.sp_dp(), n_pairs=n_pairs, cache=cache)

        cold = enact()
        assert cold.cache_stats.total.stores == 6 * n_pairs + 1
        assert len(walks) == len(stored) + sources
        walks.clear()
        warm = enact()
        assert warm.cache_stats.total.hits == 6 * n_pairs + 1
        assert len(walks) == sources


class TestConfigDrivenCache:
    def test_cache_off_reports_no_stats(self, engine, ideal_grid):
        workflow = chain_workflow(engine, ideal_grid)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"in": [1]}
        )
        assert result.cache_stats is None


class TestSingleFlight:
    def test_identical_concurrent_invocations_coalesce(self):
        """Two enactments of the same workflow+data on ONE engine: the
        second must ride the first's in-flight executions, not re-submit."""
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp()
        engine = Engine()
        grid = ideal_testbed(engine)
        calls = []
        wf1 = chain_workflow(engine, grid, calls=calls)
        wf2 = chain_workflow(engine, grid, calls=calls)
        e1 = MoteurEnactor(engine, wf1, config, cache=cache)
        e2 = MoteurEnactor(engine, wf2, config, cache=cache)
        done1 = e1.enact({"in": [7]})
        done2 = e2.enact({"in": [7]})
        engine.run(until=done1)
        r2 = engine.run(until=done2)
        # each service executed once, not twice
        assert sorted(calls) == ["A", "B"]
        assert sorted(r2.output_values("out")) == [9]
        total = cache.snapshot().total
        assert total.coalesced == 2
        assert total.misses == 2
        # flights are cleaned up
        assert cache._inflight == {}

    @pytest.mark.parametrize("synchronization", [False, True], ids=["ordinary", "synchronization"])
    def test_follower_is_cached_with_one_job_per_invocation(self, synchronization):
        """Both arms of the invocation lifecycle coalesce onto a leader."""
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp()
        engine = Engine()
        grid = ideal_testbed(engine)
        calls = []
        done = [
            MoteurEnactor(
                engine,
                chain_workflow(engine, grid, calls=calls, synchronization=synchronization),
                config,
                cache=cache,
            ).enact({"in": [7]})
            for _ in range(2)
        ]
        leader, follower = (engine.run(until=event) for event in done)
        assert sorted(calls) == ["A", "B"]
        assert len(grid.records) == 2  # one job per service, not per enactment
        assert leader.output_values("out") == follower.output_values("out") == [9]
        assert follower.trace.count_by_kind() == {"cached": 2}
        assert follower.cache_stats.total.coalesced == 2
        assert leader.cache_stats.total.misses == 2
        assert cache._inflight == {}

    def test_follower_result_is_identical(self):
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp()
        engine = Engine()
        grid = ideal_testbed(engine)
        wf1 = chain_workflow(engine, grid)
        wf2 = chain_workflow(engine, grid)
        done1 = MoteurEnactor(engine, wf1, config, cache=cache).enact({"in": [1, 2]})
        done2 = MoteurEnactor(engine, wf2, config, cache=cache).enact({"in": [1, 2]})
        r1 = engine.run(until=done1)
        r2 = engine.run(until=done2)
        assert sorted(r1.output_values("out")) == sorted(r2.output_values("out")) == [3, 4]
