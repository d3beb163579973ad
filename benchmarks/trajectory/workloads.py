"""The six trajectory workloads.

Each workload splits one *pass* into an untimed :meth:`prepare` (fresh
engines, testbeds, applications, data sets, temp dirs — every enactment
consumes its simulator, so nothing is reused) and a timed :meth:`execute`
(the enactments themselves).  All inputs derive from ``RandomStreams(seed)``;
every pass of one seed does identical work, so wall times of passes are
samples of one quantity and the simulated statistics must repeat exactly.

Every Bronze enactment runs ``config.with_best_effort()``: a job that
exhausts its resubmissions is a counted failed operation, not an aborted
run (strict mode aborts SP+DP at 300 pairs and NOP at 1 000 on seed 42).
The grids' resubmission cap is raised to ``JOB_ATTEMPT_CAP`` so that no
seed exhausts one: at the calibrated 2% per-attempt failure rate and the
default cap of 3, one seed in twenty loses a job in ``paper_sweep`` or
``scale_1k``, and a benchmark run with failed operations is not comparable
with one without.  A run in which no job reaches the default cap — seed 42
is one — simulates exactly what it did under that cap.
``service_24`` is the exception — the service picks its configurations
itself — but its cluster testbed injects no faults.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.cache import FileStore, ResultCache
from repro.core.config import OptimizationConfig
from repro.experiments.calibration import PAPER_SIZES, make_experiment_grid
from repro.grid.testbeds import chaotic_testbed, cluster_testbed
from repro.observability import InMemoryCollector, InstrumentationBus, RunMonitor
from repro.observability.dataflow import DataFlowCollector
from repro.observability.drift import policy_key
from repro.service import EnactmentService, RunState, SQLiteStateStore, TenantSpec
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

from tracing import TimedProxy, Tracer

SINKS = ("accuracy_rotation", "accuracy_translation")
SUBSCRIBER_METHODS = ("on_start", "on_end")
#: where SQLite/FileStore state goes: inside the checkout, never in runstore/
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: attempts a grid job may make before it is given up: 0.02 ** 12 per job
JOB_ATTEMPT_CAP = 12


def temp_dir() -> tempfile.TemporaryDirectory:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR)


class Instruments:
    """What a traced pass threads through a workload (both None when untraced)."""

    def __init__(self, tracer: Optional[Tracer] = None, profiler: Any = None) -> None:
        self.tracer = tracer
        self.profiler = profiler

    def timed(self, target: Any, prefix: str, methods) -> Any:
        """*target*, or a timing proxy for it when a tracer is installed."""
        if self.tracer is None:
            return target
        return TimedProxy(target, self.tracer, prefix, methods)


class PassStats:
    """Simulated statistics and counters of one pass (all deterministic)."""

    def __init__(self) -> None:
        self.sim_makespan_s = 0.0
        self.jobs = 0  # grid jobs completed
        self.jobs_submitted = 0
        self.job_attempts = 0
        self.invocations = 0
        self.attempted = 0  # expected invocations: the operations
        self.failed = 0
        self.events = 0
        self.peak_heap = 0
        #: workload-specific deterministic numbers (cells, hits, runs done...)
        self.detail: Dict[str, Any] = {}
        #: workload-specific host timings of parts of the pass
        self.parts: Dict[str, float] = {}
        #: host seconds of the unit of work: a part of execute() when the
        #: workload sets it, else all of execute() (filled in by the worker)
        self.wall_s: Optional[float] = None
        self.errors: List[str] = []

    def golden(self) -> Dict[str, Any]:
        """What ``expected.json`` pins for seed 42."""
        doc = {
            "sim_makespan_s": self.sim_makespan_s,
            "events": self.events,
            "jobs": self.jobs,
            "invocations": self.invocations,
        }
        doc.update(self.detail)
        return doc


class Bronze:
    """One prepared Bronze Standard enactment on a fresh simulator."""

    def __init__(
        self,
        seed: int,
        config: OptimizationConfig,
        n_pairs: int,
        grid_factory: Callable = make_experiment_grid,
    ) -> None:
        self.engine = Engine()
        streams = RandomStreams(seed=seed)
        self.grid = grid_factory(self.engine, streams)
        self.grid.retry_policy = dataclasses.replace(
            self.grid.retry_policy, max_attempts=JOB_ATTEMPT_CAP
        )
        self.app = BronzeStandardApplication(self.engine, self.grid, streams)
        self.dataset = self.app.build_dataset(n_pairs)
        self.config = config.with_best_effort()
        self.n_pairs = n_pairs
        self.result = None

    def enact(self, **kwargs) -> None:
        self.result = self.app.enact(self.config, dataset=self.dataset, **kwargs)

    @property
    def expected_invocations(self) -> int:
        per_pair = 4 if self.config.job_grouping else BronzeStandardApplication.jobs_per_pair()
        return per_pair * self.n_pairs + 1  # + the MultiTransfoTest barrier

    def outputs(self) -> Dict[str, List[Any]]:
        return {sink: self.result.output_values(sink) for sink in SINKS}

    def account(self, stats: PassStats, what: str) -> None:
        """Fold this enactment into *stats* and check its invariants."""
        result, grid = self.result, self.grid
        completed = len(grid.completed_records())
        stats.sim_makespan_s += result.makespan
        stats.jobs += completed
        stats.jobs_submitted += len(grid.records)
        stats.job_attempts += sum(record.attempts for record in grid.records)
        stats.invocations += result.invocation_count
        stats.attempted += self.expected_invocations
        failed = self.expected_invocations - result.invocation_count
        stats.failed += failed
        stats.events += self.engine.events_processed
        stats.peak_heap = max(stats.peak_heap, self.engine.peak_heap_size)
        if failed == 0:
            # one job per wrapped invocation; resubmissions are attempts
            # of the same record, so the count is exact when nothing died
            if not (len(grid.records) == completed == self.expected_invocations - 1):
                stats.errors.append(
                    f"{what}: {len(grid.records)} jobs submitted, {completed} completed, "
                    f"expected {self.expected_invocations - 1}"
                )
            for sink, values in self.outputs().items():
                if len(values) != 1 or not math.isfinite(float(values[0])):
                    stats.errors.append(f"{what}: sink {sink} collected {values!r}")


class Workload:
    """Base: sizes, seed, and the prepare/execute/cleanup protocol."""

    name = ""
    #: plain-language unit of work, printed with the results
    unit = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def size(self, full: int) -> int:
        """*full*, or a tenth of it (at least 1) in smoke mode."""
        return max(1, full // 10) if self.smoke else full

    def prepare(self, instruments: Instruments, index: int) -> Any:
        raise NotImplementedError

    def execute(self, state: Any, instruments: Instruments) -> PassStats:
        raise NotImplementedError

    def cleanup(self, state: Any) -> None:
        """Release what prepare() opened (untimed)."""


class PaperSweep(Workload):
    """Table 1: six policies x three sizes on the calibrated EGEE-like grid.

    The paper's own traffic: every policy path (stage barriers, JG
    composites) with buffers too small for matching to matter, so host cost
    spreads over sim.engine, grid.* and services.*.
    """

    name = "paper_sweep"
    unit = "18 enactments: 6 policies x {12, 66, 126} pairs"

    def prepare(self, instruments, index):
        return [
            Bronze(self.seed, config, self.size(pairs))
            for config in OptimizationConfig.paper_configurations()
            for pairs in PAPER_SIZES
        ]

    def execute(self, cells, instruments):
        for cell in cells:
            cell.enact(profiler=instruments.profiler)
        stats = PassStats()
        makespans: Dict[str, float] = {}
        for cell in cells:
            label = f"{cell.config.label}@{cell.n_pairs}"
            cell.account(stats, label)
            makespans[label] = cell.result.makespan
        stats.detail["cells"] = makespans
        if not self.smoke and stats.failed == 0:
            top = max(PAPER_SIZES)
            order = [makespans[f"{label}@{top}"] for label in ("NOP", "SP", "DP", "SP+DP")]
            if order != sorted(order, reverse=True):
                stats.errors.append(f"Table 1 ordering NOP > SP > DP > SP+DP broken: {order}")
        return stats


class SingleBronze(Workload):
    """One Bronze enactment per pass."""

    config = OptimizationConfig.sp_dp()
    pairs = 0

    def grid_factory(self, engine, streams):
        return make_experiment_grid(engine, streams)

    def prepare(self, instruments, index):
        return Bronze(self.seed, self.config, self.size(self.pairs), self.grid_factory)

    def execute(self, run, instruments):
        run.enact(profiler=instruments.profiler)
        stats = PassStats()
        run.account(stats, self.name)
        return stats


class Scale1k(SingleBronze):
    """SP+DP x 1 000 pairs: 6 000 jobs on 800 slots, so CE batch queues fill.

    DP delivers tokens out of order, so dot matching scans its buffers:
    core.iteration is a third of the wall here and a twelfth at 126 pairs.
    """

    name = "scale_1k"
    unit = "1 enactment: SP+DP x 1000 pairs"
    pairs = 1000


class Chaos200(SingleBronze):
    """SP+DP x 200 pairs with outages, flapping SE, lossy links and repair on.

    The grid layer through its per-file path (stage_in_process, transfer
    retry and backoff, failover ranking, repair); every other workload
    takes the bulk stage_in_time path.  Replica loss and corruption are off:
    at the testbed defaults the single-replica sandbox file is destroyed
    and 59 of 60 lineages die, which is a seed cliff, not a load.
    """

    name = "chaos_200"
    unit = "1 enactment: SP+DP x 200 pairs, chaotic testbed"
    pairs = 200

    def grid_factory(self, engine, streams):
        return chaotic_testbed(
            engine, streams, replica_loss_probability=0, corruption_probability=0
        )

    def execute(self, run, instruments):
        stats = super().execute(run, instruments)
        report = run.result.failures
        if report.failures or report.dead_letters:
            stats.errors.append(
                f"{self.name}: lost lineages ({len(report.failures)} failures, "
                f"{len(report.dead_letters)} dead letters)"
            )
        return stats


class Observed400(Workload):
    """SP+DP+JG x 400 pairs, unsubscribed and then fully subscribed.

    The subscribed run carries an InstrumentationBus with an
    InMemoryCollector, a RunMonitor and a DataFlowCollector; observability
    does a third of its work and none of any other workload's.  The unit of
    work is the subscribed run; the unsubscribed one is the reference arm of
    ``observed_overhead_ratio``.  Passes alternate which arm runs first.
    """

    name = "observed_400"
    unit = "1 subscribed enactment: SP+DP+JG x 400 pairs (plus its unsubscribed twin)"
    config = OptimizationConfig.sp_dp_jg()

    def prepare(self, instruments, index):
        pairs = self.size(400)
        plain = Bronze(self.seed, self.config, pairs)
        observed = Bronze(self.seed, self.config, pairs)
        bus = InstrumentationBus()
        collector = InMemoryCollector()
        monitor = RunMonitor(bus=bus, expected_items=pairs, policy=policy_key(observed.config))
        dataflow = DataFlowCollector().attach(observed.grid)
        for subscriber, label in (
            (collector, "collector"),
            (monitor, "monitor"),
            (dataflow, "dataflow"),
        ):
            bus.subscribe(
                instruments.timed(subscriber, f"observability.{label}", SUBSCRIBER_METHODS)
            )
        return {
            "plain": plain,
            "observed": observed,
            "bus": bus,
            "collector": collector,
            "observed_first": index % 2 == 1,
        }

    def execute(self, state, instruments):
        plain, observed = state["plain"], state["observed"]
        arms = [
            ("plain_wall_s", plain, {}),
            ("observed_wall_s", observed, {"instrumentation": state["bus"]}),
        ]
        if state["observed_first"]:
            arms.reverse()
        stats = PassStats()
        for part, run, extra in arms:
            start = time.perf_counter()
            run.enact(profiler=instruments.profiler, **extra)
            stats.parts[part] = time.perf_counter() - start
        stats.wall_s = stats.parts["observed_wall_s"]
        observed.account(stats, self.name)
        stats.detail["spans"] = len(state["collector"])
        if plain.result.makespan != observed.result.makespan:
            stats.errors.append(
                f"{self.name}: subscribed makespan {observed.result.makespan!r} != "
                f"unsubscribed {plain.result.makespan!r}"
            )
        if plain.outputs() != observed.outputs():
            stats.errors.append(f"{self.name}: subscribed outputs differ from unsubscribed")
        return stats


class Service24(Workload):
    """EnactmentService: 4 tenants x 6 runs x 10 pairs SP+DP on one cluster.

    Fair-share admission, SQLite store in a temp dir, bus attached,
    max_concurrent_runs=4; submit all 24 runs, then drain() — a closed loop
    with one client, driven from the calling thread (no start() thread).
    The only workload with multiplexed enactors on one engine; the store
    and the audit/telemetry fan-out are about half of its wall.
    """

    name = "service_24"
    unit = "24 runs drained: 4 tenants x 6 runs x 10 pairs SP+DP"
    tenants = ("alice", "bob", "carol", "dave")
    runs_per_tenant = 6

    def prepare(self, instruments, index):
        directory = temp_dir()
        store = SQLiteStateStore(directory.name)
        service = EnactmentService(
            instruments.timed(
                store, "service.store", ("put_run", "append_audit", "save_usage", "runs")
            ),
            policy="fair-share",
            max_concurrent_runs=4,
            testbed=lambda engine, streams: cluster_testbed(
                engine, streams, workers=64, slots_per_worker=2
            ),
            seed=self.seed,
            instrumentation=InstrumentationBus(),
            profiler=instruments.profiler,
        )
        subscribers = service.instrumentation.subscribers
        subscribers[subscribers.index(service.telemetry)] = instruments.timed(
            service.telemetry, "observability.telemetry", SUBSCRIBER_METHODS
        )
        for tenant in self.tenants:
            service.add_tenant(TenantSpec(name=tenant))
        return {"directory": directory, "service": service}

    def execute(self, state, instruments):
        service = state["service"]
        pairs = self.size(10)
        run_seed = self.seed * 1000
        for _ in range(self.runs_per_tenant):
            for tenant in self.tenants:
                run_seed += 1
                service.submit(tenant, n_items=pairs, config_label="SP+DP", seed=run_seed)
        records = service.drain()
        stats = PassStats()
        expected_runs = len(self.tenants) * self.runs_per_tenant
        per_run = BronzeStandardApplication.jobs_per_pair() * pairs + 1
        stats.attempted = expected_runs * per_run
        done = [record for record in records if record.state is RunState.DONE]
        for record in done:
            stats.sim_makespan_s += record.result["makespan"]
            stats.invocations += record.result["invocations"]
        stats.failed = stats.attempted - stats.invocations
        grid = service.grid
        stats.jobs = len(grid.completed_records())
        stats.jobs_submitted = len(grid.records)
        stats.job_attempts = sum(record.attempts for record in grid.records)
        stats.events = service.engine.events_processed
        stats.peak_heap = service.engine.peak_heap_size
        stats.detail["runs_done"] = len(done)
        if len(records) != expected_runs or len(done) != expected_runs:
            stats.errors.append(
                f"{self.name}: {len(done)} of {len(records)} runs DONE, expected {expected_runs}"
            )
        return stats

    def cleanup(self, state):
        state["service"].close()
        state["directory"].cleanup()


class CacheRerun(Workload):
    """SP+DP x 126 pairs against ResultCache(FileStore): 1 cold + 3 warm.

    The cold enactment writes every result; each warm one runs on a fresh
    engine and grid and submits nothing.  core.enactor with no grid at all,
    and puts beside reads so a gain for hits that costs puts shows.
    """

    name = "cache_rerun"
    unit = "1 cold + 3 warm enactments: SP+DP x 126 pairs, FileStore cache"
    warm_runs = 3

    def prepare(self, instruments, index):
        directory = temp_dir()
        store = instruments.timed(FileStore(directory.name), "cache.store", ("get", "put"))
        runs = [
            Bronze(self.seed, OptimizationConfig.sp_dp(), self.size(126))
            for _ in range(1 + self.warm_runs)
        ]
        return {"directory": directory, "cache": ResultCache(store), "runs": runs}

    def execute(self, state, instruments):
        cache, runs = state["cache"], state["runs"]
        walls = []
        snapshots = [cache.snapshot().total]
        for run in runs:
            start = time.perf_counter()
            run.enact(cache=cache, profiler=instruments.profiler)
            walls.append(time.perf_counter() - start)
            snapshots.append(cache.snapshot().total)
        stats = PassStats()
        stats.parts["cold_wall_s"] = walls[0]
        stats.parts["warm_wall_s"] = sum(walls[1:]) / self.warm_runs
        cold = runs[0]
        cold.account(stats, "cache_rerun cold")
        cold_puts = snapshots[1].stores - snapshots[0].stores
        stats.detail["cold_puts"] = cold_puts
        for index, run in enumerate(runs[1:], start=1):
            what = f"cache_rerun warm {index}"
            stats.invocations += run.result.invocation_count
            stats.attempted += run.expected_invocations
            stats.failed += run.expected_invocations - run.result.invocation_count
            stats.events += run.engine.events_processed
            stats.sim_makespan_s += run.result.makespan
            hits = snapshots[index + 1].hits - snapshots[index].hits
            if run.grid.records:
                stats.errors.append(f"{what}: submitted {len(run.grid.records)} jobs")
            if hits != cold_puts:
                stats.errors.append(f"{what}: {hits} hits, cold run stored {cold_puts}")
            if repr(run.outputs()) != repr(cold.outputs()):
                stats.errors.append(f"{what}: outputs differ from the cold run")
        stats.detail["hits"] = snapshots[-1].hits - snapshots[0].hits
        stats.detail["misses"] = snapshots[-1].misses - snapshots[0].misses
        return stats

    def cleanup(self, state):
        state["directory"].cleanup()


WORKLOADS = {
    cls.name: cls
    for cls in (PaperSweep, Scale1k, Observed400, Chaos200, Service24, CacheRerun)
}
