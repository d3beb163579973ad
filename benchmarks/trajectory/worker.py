"""One workload in one fresh, single-threaded process.

``run.py`` starts this script once per workload (and again, with
``--setup-only``, to sample set-up time); it prints one JSON document as
its last line.  The simulator and ``EnactmentService.drain()`` are driven
from this thread; nothing here starts another.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, SRC)

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"repro imported from {repro.__file__}, not from this checkout's src/")

from repro.core.config import OptimizationConfig  # noqa: E402
from repro.observability.profiling import Profiler, wall_clock  # noqa: E402

import layers  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS, Bronze, Instruments, PassStats, Workload  # noqa: E402

PROFILE_COMPONENTS = ("engine", "enactor", "grid", "broker", "cache", "bus")
#: the traced pass must tile: |sum of self times - traced wall| / traced wall
TILING_TOLERANCE = 0.01


def run_pass(workload: Workload, instruments: Instruments, index: int, state=None):
    """One pass; returns ``(stats, wall of execute())``.

    prepare() and cleanup() are outside the timed region; gc.collect() runs
    right before it and the collector stays enabled inside it.  A workload
    that did not time a part of the pass as its unit of work gets the whole
    of execute() as ``stats.wall_s``.
    """
    if state is None:
        state = workload.prepare(instruments, index)
    tracer = instruments.tracer
    gc.collect()
    try:
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        stats = workload.execute(state, instruments)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
    finally:
        workload.cleanup(state)
    if stats.wall_s is None:
        stats.wall_s = wall
    return stats, wall


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of *values* (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[round(fraction * (len(ordered) - 1))]


def end_to_end(passes, setup_s: float) -> dict:
    """Medians over the timed, untraced passes."""
    walls = [stats.wall_s for stats, _ in passes]
    stats = passes[0][0]
    metrics = {
        "wall_s": statistics.median(walls),
        "jobs_per_min": statistics.median(60.0 * stats.jobs / wall for wall in walls),
        "invocations_per_s": statistics.median(stats.invocations / wall for wall in walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "sim_makespan_s": stats.sim_makespan_s,
        "failed_share": share(sum(s.failed for s, _ in passes), sum(s.attempted for s, _ in passes)),
    }
    if "plain_wall_s" in stats.parts:
        metrics["observed_overhead_ratio"] = statistics.median(
            s.parts["observed_wall_s"] for s, _ in passes
        ) / statistics.median(s.parts["plain_wall_s"] for s, _ in passes)
    return metrics


def per_layer(untraced, traced, tracer, iteration_engines, profile, drivers) -> dict:
    """The per-layer metrics of one traced run (every name, on every workload)."""
    stats, wall = untraced
    _, traced_wall = traced
    table = tracer.table()
    metrics = {}
    for name, row in table.items():
        if name == ROOT:
            continue
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    metrics["core.enactor.run.cum_s"] = table["core.enactor.run"]["cum_s"]
    metrics["trace.root.self_s"] = table[ROOT]["self_s"]
    metrics["trace.overhead_ratio"] = traced_wall / wall
    metrics["trace.tiling_error"] = abs(tracer.total_self_s() - traced_wall) / traced_wall

    metrics["sim.engine.events"] = stats.events
    metrics["sim.engine.events_per_s"] = stats.events / stats.wall_s
    metrics["sim.engine.us_per_event"] = 1e6 * stats.wall_s / stats.events
    metrics["sim.engine.peak_heap"] = stats.peak_heap
    metrics["sim.engine.step_self_share"] = table["sim.engine.step"]["self_s"] / traced_wall

    offered = sum(engine.offered for engine in iteration_engines)
    metrics["core.iteration.bindings_per_offer"] = share(
        sum(engine.fired for engine in iteration_engines), offered
    )
    metrics["core.enactor.invocations"] = stats.invocations
    metrics["core.enactor.us_per_invocation"] = 1e6 * stats.wall_s / stats.invocations

    metrics["grid.jobs_submitted"] = stats.jobs_submitted
    metrics["grid.jobs_completed"] = stats.jobs
    metrics["grid.attempts"] = stats.job_attempts
    metrics["grid.retry_ratio"] = share(
        stats.job_attempts - stats.jobs_submitted, stats.jobs_submitted
    )

    metrics["observability.bus.spans"] = stats.detail.get("spans", 0)
    ticks_ms = [ns / 1e6 for ns in tracer.samples[layers.TICK]]
    metrics["service.scheduler.tick_p50_ms"] = percentile(ticks_ms, 0.50)
    metrics["service.scheduler.tick_p95_ms"] = percentile(ticks_ms, 0.95)

    hits, misses = stats.detail.get("hits", 0), stats.detail.get("misses", 0)
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_ratio"] = share(hits, hits + misses)
    metrics["cache.cold_wall_s"] = stats.parts.get("cold_wall_s", 0.0)
    metrics["cache.warm_wall_s"] = stats.parts.get("warm_wall_s", 0.0)

    components = profile.by_component()
    for component in PROFILE_COMPONENTS:
        metrics[f"profile.{component}.self_share"] = share(
            components.get(component, {}).get("self", 0.0), profile.total_time
        )
    metrics.update(drivers)

    metrics["sim_makespan_s"] = stats.sim_makespan_s
    metrics["failed_share"] = share(stats.failed, stats.attempted)
    metrics["observed_overhead_ratio"] = share(
        stats.parts.get("observed_wall_s", 0.0), stats.parts.get("plain_wall_s", 0.0)
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # -- set-up: imports (above), warm-up, first pass's testbeds and data --
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    plain = Instruments()
    Bronze(args.seed, OptimizationConfig.sp_dp(), 12).enact()
    state = workload.prepare(plain, 0)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        workload.cleanup(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    document = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    passes = []
    if args.trace == 0:
        # as many passes as fit in --seconds (at least one): stop when the
        # next would overshoot, so a run's length does not depend on the
        # workload's pass length
        measure_start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, plain, len(passes), state))
            state = None
            elapsed = time.perf_counter() - measure_start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        document["metrics"] = end_to_end(passes, setup_s)
    else:
        passes.append(run_pass(workload, plain, 0, state))
        tracer = Tracer()
        iteration_engines = layers.install(tracer)
        try:
            passes.append(run_pass(workload, Instruments(tracer=tracer), 1))
        finally:
            tracer.restore()
        profiler = Profiler(clock=wall_clock)
        passes.append(run_pass(workload, Instruments(profiler=profiler), 2))
        document["metrics"] = per_layer(
            passes[0],
            passes[1],
            tracer,
            iteration_engines,
            profiler.snapshot(),
            layers.run_drivers(args.seed, args.smoke),
        )
        document["spans"] = tracer.table()
        if document["metrics"]["trace.tiling_error"] > TILING_TOLERANCE:
            passes[1][0].errors.append(
                f"shim self times miss the traced wall by "
                f"{document['metrics']['trace.tiling_error']:.2%}"
            )

    first: PassStats = passes[0][0]
    errors = [error for stats, _ in passes for error in stats.errors]
    for index, (stats, _) in enumerate(passes[1:], start=1):
        if stats.golden() != first.golden():
            errors.append(
                f"pass {index} simulated {stats.golden()!r}, pass 0 {first.golden()!r}: "
                "same seed must repeat exactly"
            )
    document.update(
        walls=[stats.wall_s for stats, _ in passes],
        golden=first.golden(),
        attempted=sum(stats.attempted for stats, _ in passes),
        failed=sum(stats.failed for stats, _ in passes),
        errors=errors,
        unit=workload.unit,
    )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
