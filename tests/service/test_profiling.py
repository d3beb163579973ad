"""Service-level profiler integration: the tick seam, fold, and engine counters."""

import sys

from repro.grid.testbeds import cluster_testbed
from repro.observability.profiling import Profiler, TickClock
from repro.observability.runstore import RunStore
from repro.service import EnactmentService, InMemoryStateStore, TenantSpec


def small_cluster(engine, streams):
    return cluster_testbed(engine, streams, workers=4, slots_per_worker=2)


def make_service(**overrides):
    kwargs = dict(
        policy="fair-share",
        max_concurrent_runs=2,
        testbed=small_cluster,
        seed=0,
    )
    kwargs.update(overrides)
    return EnactmentService(InMemoryStateStore(), **kwargs)


def drain_one(service):
    service.add_tenant(TenantSpec(name="alice", weight=1.0))
    service.submit("alice", n_items=1, seed=1)
    service.drain()
    return service


class TestServiceProfiler:
    def test_profiler_installed_across_the_stack(self):
        profiler = Profiler(clock=TickClock())
        drain_one(make_service(profiler=profiler))
        components = profiler.snapshot().by_component()
        for component in ("engine", "grid", "enactor", "service"):
            assert components[component]["self"] > 0, component
        assert profiler.depth == 0

    def test_unprofiled_tick_leaves_the_profile_hook_alone(self):
        seen = []

        def outer(frame, event, arg):
            seen.append(event)

        service = make_service()
        service.add_tenant(TenantSpec(name="alice", weight=1.0))
        service.submit("alice", n_items=1, seed=1)
        previous = sys.getprofile()
        sys.setprofile(outer)
        try:
            service.tick()
            assert sys.getprofile() is outer
        finally:
            sys.setprofile(previous)
        assert "call" in seen

    def test_runstore_rows_fold_in_profile_counters(self, tmp_path):
        runstore = RunStore(tmp_path / "runstore")
        drain_one(
            make_service(
                runstore=runstore, profiler=Profiler(clock=TickClock())
            )
        )
        (summary,) = runstore.runs()
        assert summary.counters["perf.profile.engine"] > 0
        assert summary.counters["perf.profile.engine.calls"] > 0

    def test_unprofiled_rows_have_no_profile_counters(self, tmp_path):
        runstore = RunStore(tmp_path / "runstore")
        drain_one(make_service(runstore=runstore))
        (summary,) = runstore.runs()
        assert not any(
            key.startswith("perf.profile.") for key in summary.counters
        )

    def test_perf_counters_include_engine_lifetime_counters(self):
        service = drain_one(make_service())
        counters = service.perf_counters()
        assert counters["engine.events_processed"] > 0
        assert counters["engine.events_scheduled"] >= (
            counters["engine.events_processed"]
        )
        assert counters["engine.peak_heap_size"] >= 1
