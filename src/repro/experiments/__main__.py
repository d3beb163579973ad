"""Command-line entry point: reproduce the paper from a shell.

``python -m repro.experiments --help`` lists the commands, and
``python -m repro.experiments <command> --help`` their options.

``table1`` runs the full sweep (Tables 1 and 2, the Section 5.2/5.3
ratios, the paper comparison); ``diagrams`` regenerates Figures 4-6.
Every other command that runs a Bronze Standard enactment builds it in
one front half (engine, seeded streams, ``--testbed`` grid, application,
``--config`` policy) and attaches what it reads.  ``bronze`` reports one
run and is the one writer of its files: the span trace (JSONL, read back
by ``report-trace`` and every ``--trace`` report), the Chrome trace, the
alert log, the journal and the profile.  A simulated crash
(``--crash-after``, exit 4) still writes and closes every one of them.
``report-critical-path``, ``gantt``, ``report-health`` and
``report-failures`` read a ``--trace`` file or a live run;
``report-durability`` and ``report-dataflow`` attach their collectors to
a live run; ``record-run`` appends a run summary to a store and
``compare-runs`` diffs two summaries: a seeded run reproduces exactly,
so any changed key, an improvement included, exits 1 (the CI gate).

The ``profile`` family reads what ``bronze --profile`` writes, on the
profiler's deterministic tick clock, so same-seed files are
byte-identical (``Profiler(clock=wall_clock)`` from Python measures real
time): ``report`` renders one, ``diff`` ranks per-component movement
between two and names the top regressed component, and ``flame``
exports collapsed-stack or speedscope flamegraphs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.apps.bronze_standard import BRONZE_CRITICAL_PATH
from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.diagrams import execution_diagram
from repro.observability.logbridge import cli_logger
from repro.services.base import LocalService


def _config_by_label(label: str) -> OptimizationConfig:
    table = {c.label: c for c in OptimizationConfig.paper_configurations()}
    try:
        return table[label]
    except KeyError:
        raise SystemExit(
            f"unknown configuration {label!r}; options: {', '.join(table)}"
        ) from None


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.harness import run_sweep
    from repro.experiments.reporting import (
        check_ordering,
        format_ratios,
        format_table1,
        format_table2,
        paper_comparison,
    )

    out = cli_logger()
    sweep = run_sweep(sizes=tuple(args.sizes), seed=args.seed)
    out.info("=== Table 1 (measured) ===")
    out.info(format_table1(sweep, with_hours=True))
    out.info("\n=== Table 2 (measured) ===")
    out.info(format_table2(sweep.table2()))
    out.info("\n=== Sections 5.2/5.3 ratios ===")
    out.info(format_ratios(sweep.table2()))
    out.info("\n=== paper vs measured ===")
    out.info(paper_comparison(sweep))
    out.info(f"\nordering preserved: {check_ordering(sweep)}")
    return 0


def cmd_diagrams(args: argparse.Namespace) -> int:
    from repro.sim.engine import Engine
    from repro.workflow.patterns import chain_workflow, figure1_workflow

    out = cli_logger()
    for title, config in (
        ("Figure 4 — data parallelism", OptimizationConfig.dp()),
        ("Figure 5 — service parallelism", OptimizationConfig.sp()),
    ):
        engine = Engine()

        def factory(name, inputs, outputs):
            return LocalService(engine, name, inputs, outputs, duration=1.0)

        workflow = figure1_workflow(factory)
        result = MoteurEnactor(engine, workflow, config).run({"source": [0, 1, 2]})
        out.info(f"=== {title} (makespan {result.makespan:.0f} T) ===")
        out.info(execution_diagram(result.trace, cell=1.0))
        out.info("")

    times = [[2.0, 1.0, 1.0], [1.0, 3.0, 1.0]]
    for title, config in (
        ("Figure 6 left — DP only", OptimizationConfig.dp()),
        ("Figure 6 right — SP+DP", OptimizationConfig.sp_dp()),
    ):
        engine = Engine()

        def factory(name, inputs, outputs):
            index = int(name[1:]) - 1
            return LocalService(
                engine, name, inputs, outputs,
                function=lambda x: {"y": x},
                duration=lambda d, i=index: times[i][d["x"].value],
            )

        workflow = chain_workflow(factory, 2)
        result = MoteurEnactor(engine, workflow, config).run({"input": [0, 1, 2]})
        out.info(f"=== {title} (makespan {result.makespan:.0f} T) ===")
        out.info(execution_diagram(result.trace, cell=1.0))
        out.info("")
    return 0


#: the testbeds each testbed-specific run option acts on
_TAKES = {"max_attempts": ("faulty", "chaotic"), "no_repair": ("chaotic",)}


def _bronze_run(args: argparse.Namespace, best_effort: bool = False):
    """The one Bronze Standard front half: ``(app, grid, config)``.

    Builds the engine, the ``--seed`` streams, the ``--testbed`` grid,
    the application and the ``--config`` policy (with contained
    failures when *best_effort*).  The caller attaches its subscribers
    or collectors, then calls ``app.enact``.  A ``--max-attempts`` or
    ``--no-repair`` that the chosen testbed would ignore exits 2 before
    anything is built.
    """
    from repro.apps.bronze_standard import BronzeStandardApplication
    from repro.grid.testbeds import chaotic_testbed, egee_like_testbed, faulty_testbed
    from repro.sim.engine import Engine
    from repro.util.rng import RandomStreams

    for flag, takers in _TAKES.items():
        if getattr(args, flag) not in (None, False) and args.testbed not in takers:
            print(
                f"python -m repro.experiments: error: --{flag.replace('_', '-')} "
                f"takes effect only with --testbed {' or '.join(takers)}; "
                f"--testbed {args.testbed} ignores it",
                file=sys.stderr,
            )
            raise SystemExit(2)
    engine = Engine()
    streams = RandomStreams(seed=args.seed)
    cap = {} if args.max_attempts is None else {"max_attempts": args.max_attempts}
    if args.testbed == "faulty":
        grid = faulty_testbed(engine, streams, **cap)
    elif args.testbed == "chaotic":
        grid = chaotic_testbed(engine, streams, repair=not args.no_repair, **cap)
    else:
        grid = egee_like_testbed(
            engine, streams, n_sites=6, workers_per_ce=40, with_background_load=False
        )
    app = BronzeStandardApplication(engine, grid, streams)
    config = _config_by_label(args.config)
    return app, grid, config.with_best_effort() if best_effort else config


def cmd_bronze(args: argparse.Namespace) -> int:
    from repro.core.journal import SimulatedCrash
    from repro.observability import (
        ChromeTraceExporter,
        InstrumentationBus,
        JsonlAlertWriter,
        JsonlExporter,
        RunMonitor,
        policy_key,
    )

    out = cli_logger()
    app, grid, config = _bronze_run(args, args.best_effort)
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH")

    profiler = None
    if args.profile:
        from repro.observability.profiling import Profiler, TickClock

        profiler = Profiler(
            clock=TickClock(),
            label=f"bronze {config.label} pairs={args.pairs} "
            f"seed={args.seed} testbed={args.testbed}",
        )
    monitoring = args.monitor or args.alerts or args.feedback
    bus = jsonl = chrome = monitor = alert_writer = None
    # Every writer is closed, and the Chrome trace written, on every exit
    # path: a simulated crash keeps the run's files up to the crash.
    with contextlib.ExitStack() as finish:
        if args.trace or args.chrome_trace or monitoring:
            bus = InstrumentationBus()
            if args.trace:
                jsonl = finish.enter_context(bus.subscribe(JsonlExporter(args.trace)))
            if args.chrome_trace:
                chrome = bus.subscribe(ChromeTraceExporter())
                finish.callback(chrome.write, args.chrome_trace)
            if monitoring:
                monitor = RunMonitor.attach(
                    bus,
                    expected_items=args.pairs,
                    policy=policy_key(config),
                    on_progress=out.info if args.monitor else None,
                )
                if args.alerts:
                    alert_writer = finish.enter_context(
                        monitor.add_sink(JsonlAlertWriter(args.alerts))
                    )
                if args.feedback:
                    grid.set_health_provider(monitor)
                    monitor.add_sink(grid.alert_reactor())
        try:
            result = app.enact(
                config,
                n_pairs=args.pairs,
                instrumentation=bus,
                journal=args.journal,
                resume=args.resume,
                crash_after=args.crash_after,
                profiler=profiler,
            )
        except SimulatedCrash as crash:
            out.info(f"simulated crash after {crash.completed} invocations")
            if args.journal:
                out.info(f"journal: {args.journal} (resume with --resume)")
            return 4
        lost_something = _report_bronze(args, config, grid, result, monitor, bus)

    if alert_writer is not None:
        out.info(f"alerts written: {args.alerts} ({alert_writer.lines_written} lines)")
    if jsonl is not None:
        out.info(f"trace written: {args.trace} ({jsonl.lines_written} spans)")
    if chrome is not None:
        out.info(f"chrome trace written: {args.chrome_trace} (load in Perfetto)")
    if profiler is not None:
        profile = profiler.snapshot()
        path = profile.save(args.profile)
        out.info(
            f"profile written: {path} ({profile.total_time * 1e3:.3f}ms "
            f"accounted, {profile.clock} clock; inspect with: "
            f"python -m repro.experiments profile report {path})"
        )
    if args.strict and lost_something:
        out.info("exit 3: --strict and the best-effort run lost items")
        return 3
    return 0


def _report_bronze(args, config, grid, result, monitor, bus) -> bool:
    """Print one bronze run's outputs; True when the run lost an item."""
    from repro.experiments.analysis import job_statistics, overhead_breakdown
    from repro.util.units import format_duration

    out = cli_logger()
    out.info(f"configuration: {config.label}, {args.pairs} image pairs")
    out.info(f"makespan: {format_duration(result.makespan)}")
    if result.replayed_count:
        out.info(f"replayed from journal: {result.replayed_count} invocations")
    if result.groups:
        out.info(f"groups: {', '.join(g.name for g in result.groups)}")
    stats = job_statistics(grid.records)
    out.info(
        f"jobs: {stats.jobs} ({stats.total_attempts} attempts), "
        f"overhead fraction {stats.overhead_fraction:.0%}"
    )
    phases = overhead_breakdown(grid.records)
    if phases is not None:
        out.info(
            "mean phase latencies: "
            f"submit->match {phases.submission_to_matched:.0f}s, "
            f"match->queue {phases.matched_to_queued:.0f}s, "
            f"queue->run {phases.queued_to_running:.0f}s, "
            f"run->done {phases.running_to_done:.0f}s"
        )
    rotations = result.output_values("accuracy_rotation")
    translations = result.output_values("accuracy_translation")
    if rotations and translations:
        out.info(
            f"accuracy: {rotations[0]:.3f} deg rotation, "
            f"{translations[0]:.3f} mm translation"
        )
    else:
        out.info("accuracy: unavailable (the assessment lineage died; see failures)")
    lost_something = False
    if result.failures is not None:
        from repro.experiments.reporting import format_failures

        report = result.failures
        lost_something = not report.empty
        if lost_something:
            out.info(
                f"\n=== contained failures ===\n"
                f"failed: {len(report.failures)}, skipped downstream: "
                f"{report.skipped}, dropped at barriers: {report.barrier_drops}, "
                f"dead letters: {len(report.dead_letters)}"
            )
            out.info(format_failures(report.to_rows()))
            by_ce = report.by_computing_element()
            if by_ce:
                worst = ", ".join(
                    f"{ce} x{n}"
                    for ce, n in sorted(by_ce.items(), key=lambda kv: -kv[1])
                )
                out.info(f"failures by CE: {worst}")
        else:
            out.info("contained failures: none")
    if monitor is not None:
        counts = monitor.alert_counts()
        summary = ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))
        out.info(f"alerts: {summary or 'none'}")
        flagged = monitor.flagged_ces()
        if flagged:
            out.info(f"flagged CEs: {', '.join(flagged)}")
        if args.feedback:
            out.info(
                f"broker demotions: {grid.broker.demotions}, proactive "
                f"resubmissions: "
                f"{bus.metrics.counter('grid.jobs.proactive_resubmissions').value:.0f}"
            )
    return lost_something


def cmd_report_failures(args: argparse.Namespace) -> int:
    """Dead-letter report: from an exported trace, or from a live run."""
    from repro.experiments.reporting import format_failures
    from repro.observability.failures import failure_rows_from_spans, failure_summary

    out = cli_logger()
    if args.trace:
        rows = failure_rows_from_spans(_load_spans(args.trace))
        source = args.trace
    else:
        app, _grid, config = _bronze_run(args, best_effort=True)
        result = app.enact(config, n_pairs=args.pairs)
        assert result.failures is not None
        rows = result.failures.to_rows()
        source = f"live run ({config.label}, {args.pairs} pairs, {args.testbed})"
    out.info(f"=== failure report: {source} ===")
    out.info(format_failures(rows))
    summary = failure_summary(rows)
    for title, counts in (
        ("failures by service", summary["by_service"]),
        ("failures by computing element", summary["by_computing_element"]),
    ):
        if counts:
            listed = ", ".join(
                f"{k} x{v}" for k, v in sorted(counts.items(), key=lambda kv: -kv[1])
            )
            out.info(f"{title}: {listed}")
    if args.strict and rows:
        return 3
    return 0


def cmd_report_durability(args: argparse.Namespace) -> int:
    """Durability report for one best-effort run on the chaos testbed."""
    from repro.observability import InstrumentationBus, RunMonitor, policy_key
    from repro.observability.dataflow import DataFlowCollector
    from repro.observability.durability import (
        build_durability_report,
        format_durability_report,
    )

    out = cli_logger()
    app, grid, config = _bronze_run(args, best_effort=True)
    bus = InstrumentationBus()
    collector = DataFlowCollector().attach(grid)
    monitor = RunMonitor.attach(bus, expected_items=args.pairs, policy=policy_key(config))
    result = app.enact(config, n_pairs=args.pairs, instrumentation=bus)
    report = build_durability_report(result, n_items=args.pairs)
    out.info(
        f"=== durability: {config.label}, {args.pairs} pairs, "
        f"testbed {args.testbed}, seed {args.seed}, "
        f"repair {'off' if args.no_repair else 'on'} ==="
    )
    out.info(format_durability_report(report))
    repair_records = [r for r in collector.records if r.purpose == "repair"]
    if repair_records:
        repaired = sum(r.bytes for r in repair_records)
        out.info(f"repair traffic: {len(repair_records)} transfers, {repaired} bytes")
    flagged = monitor.alert_counts()
    if flagged:
        listed = ", ".join(f"{k} x{v}" for k, v in sorted(flagged.items()))
        out.info(f"alerts: {listed}")
    if args.strict and report.lost_items:
        out.info("exit 3: --strict and the run lost items")
        return 3
    return 0


def _load_spans(path: str):
    from repro.observability import SpanError, spans_from_jsonl

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return spans_from_jsonl(handle)
    except (OSError, SpanError) as exc:
        raise SystemExit(f"cannot read trace {path!r}: {exc}")


class _LiveRun(NamedTuple):
    """One instrumented Bronze Standard enactment and what it left."""

    app: Any
    grid: Any
    result: Any
    spans: List[Any]
    monitor: Any


def _instrumented_bronze(args: argparse.Namespace) -> _LiveRun:
    """One instrumented enactment on the shared front half.

    The attached :class:`RunMonitor` gives every consumer live health
    state and puts the ``monitor.alerts.*`` counters into the run's
    metrics (and hence run-store summaries).
    """
    from repro.observability import InstrumentationBus, RunMonitor, policy_key

    app, grid, config = _bronze_run(args)
    bus = InstrumentationBus()
    collector = bus.collector()
    monitor = RunMonitor.attach(bus, expected_items=args.pairs, policy=policy_key(config))
    result = app.enact(config, n_pairs=args.pairs, instrumentation=bus)
    return _LiveRun(app, grid, result, collector.spans, monitor)


def _spans(args: argparse.Namespace) -> Tuple[list, Optional[_LiveRun]]:
    """The span stream a report reads: the ``--trace`` file (no live
    run), or one live instrumented enactment (returned with its spans)."""
    if args.trace:
        return _load_spans(args.trace), None
    live = _instrumented_bronze(args)
    return live.spans, live


def cmd_report_critical_path(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import (
        format_critical_path,
        format_critical_path_diff,
    )
    from repro.observability import (
        CriticalPathError,
        diff_against_static,
        observed_critical_path,
    )

    out = cli_logger()
    spans, live = _spans(args)
    try:
        observed = observed_critical_path(spans)
    except CriticalPathError as exc:
        raise SystemExit(str(exc))
    out.info(format_critical_path(observed))
    if live is not None:
        out.info("\n=== vs static prediction ===")
        out.info(format_critical_path_diff(diff_against_static(observed, live.app.workflow)))
    return 0


def cmd_gantt(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_ce_utilization
    from repro.observability import render_gantt, utilization_table

    out = cli_logger()
    spans, _live = _spans(args)
    out.info(render_gantt(spans, width=args.width))
    out.info("\n=== CE utilization ===")
    out.info(format_ce_utilization(utilization_table(spans)))
    return 0


def cmd_report_health(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_alerts, format_health
    from repro.observability import RunMonitor, policy_key

    out = cli_logger()
    spans, live = _spans(args)
    if live is not None:
        monitor = live.monitor
    else:
        # Replay the recorded stream through a fresh monitor: by the
        # online invariant this reproduces the live run's exact health
        # scores and alerts.
        monitor = RunMonitor(
            expected_items=args.pairs, policy=policy_key(_config_by_label(args.config))
        ).replay(spans)
    out.info("=== CE health ===")
    out.info(format_health(monitor.health_table()))
    flagged = monitor.flagged_ces()
    out.info(f"\nflagged CEs: {', '.join(flagged) or 'none'}")
    out.info("\n=== alerts ===")
    out.info(format_alerts(monitor.sorted_alerts()))
    return 0


def cmd_report_dataflow(args: argparse.Namespace) -> int:
    """Per-link/per-service byte accounting of one instrumented run."""
    from repro.observability import (
        DataFlowCollector,
        InstrumentationBus,
        dataflow_dot,
        format_dataflow_report,
    )

    out = cli_logger()
    app, grid, config = _bronze_run(args)
    bus = InstrumentationBus()
    # Attach before enacting so the collector sees every transfer; the
    # grid has no bus yet at this point, so subscribe it explicitly for
    # the stage-in/out span cross-check.
    collector = DataFlowCollector().attach(grid)
    bus.subscribe(collector)
    result = app.enact(config, n_pairs=args.pairs, instrumentation=bus)
    counters = (
        {k: float(v) for k, v in result.metrics.counters.items()}
        if result.metrics is not None
        else {}
    )
    out.info(
        f"=== data flow: {config.label}, {args.pairs} pairs, "
        f"{args.testbed} testbed (makespan {result.makespan:.1f}s) ==="
    )
    out.info(format_dataflow_report(collector, counters))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dataflow_dot(collector))
        out.info(f"data-flow graph written: {args.dot} (Graphviz DOT)")
    return 0


def cmd_record_run(args: argparse.Namespace) -> int:
    import json

    from repro.observability import RunStore, summarize_run

    out = cli_logger()
    live = _instrumented_bronze(args)
    summary = summarize_run(
        live.result,
        spans=live.spans,
        records=live.grid.completed_records(),
        processors=list(BRONZE_CRITICAL_PATH),
        n_items=args.pairs,
        seed=args.seed,
        note=args.note,
    )
    store = RunStore(args.store)
    store.append(summary)
    out.info(
        f"recorded {summary.run_id} to {args.store}: {summary.policy}, "
        f"{args.pairs} pairs, makespan {summary.makespan:.1f}s"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.info(f"summary copied to {args.out}")
    return 0


def cmd_compare_runs(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_run_comparison
    from repro.observability import RunStore, RunStoreError, compare

    store = RunStore(args.store)
    try:
        comparison = compare(store.resolve(args.baseline), store.resolve(args.candidate))
    except RunStoreError as exc:
        raise SystemExit(str(exc))
    cli_logger().info(format_run_comparison(comparison))
    return 0 if comparison.ok else 1


def _load_profile(path: str):
    from repro.observability.profiling import Profile, ProfilerError

    try:
        return Profile.load(path)
    except ProfilerError as exc:
        raise SystemExit(str(exc))


def cmd_profile_report(args: argparse.Namespace) -> int:
    from repro.observability.profiling import format_profile_report

    cli_logger().info(format_profile_report(_load_profile(args.profile)))
    return 0


def cmd_profile_diff(args: argparse.Namespace) -> int:
    from repro.observability.profiling import diff_profiles, format_profile_diff

    out = cli_logger()
    diff = diff_profiles(_load_profile(args.baseline), _load_profile(args.candidate))
    out.info(format_profile_diff(diff))
    top = diff.top_component
    if top is not None:
        out.info(f"\ntop regressed component: {top.component} ({top.delta_us:+.0f}us)")
    return 0


def cmd_profile_flame(args: argparse.Namespace) -> int:
    from repro.observability.profiling import speedscope_json, to_collapsed

    out = cli_logger()
    profile = _load_profile(args.profile)
    if args.format == "speedscope":
        rendered = speedscope_json(profile) + "\n"
    else:
        rendered = to_collapsed(profile)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        out.info(
            f"{args.format} flamegraph written: {args.out} "
            f"({len(rendered.splitlines())} lines)"
        )
    else:
        sys.stdout.write(rendered)
    return 0


def cmd_report_trace(args: argparse.Namespace) -> int:
    from repro.core.trace import ExecutionTrace, TraceEvent
    from repro.experiments.reporting import format_drift, format_phase_breakdown
    from repro.observability import (
        DriftError,
        drift_report_from_trace,
        overhead_by_job_from_spans,
        policy_key,
    )

    out = cli_logger()
    spans = _load_spans(args.trace)
    out.info(f"{len(spans)} spans from {args.trace}")
    out.info("\n=== phase breakdown ===")
    out.info(format_phase_breakdown(spans))
    runs = [s for s in spans if s.name == "run"]
    if not runs:
        out.info("\n(no run span in the trace: drift report skipped)")
        return 0

    # The enactor's execution trace, out of the invocation spans, gives
    # the drift reporter the model's T matrix.
    trace = ExecutionTrace()
    for span in spans:
        if span.name == "invocation" and span.end is not None:
            trace.add(TraceEvent.from_span(span))
    try:
        report = drift_report_from_trace(
            trace,
            policy_key(runs[-1]),
            overhead_by_job=overhead_by_job_from_spans(spans),
            processors=BRONZE_CRITICAL_PATH,
        )
    except DriftError as exc:
        out.info(f"\n(drift report unavailable: {exc})")
        return 0
    out.info("\n=== model drift ===")
    out.info(format_drift(report))
    return 0


def _add_run_options(
    sub_parser: argparse.ArgumentParser, config: str = "SP+DP", trace: bool = False
) -> None:
    """The options of every command that runs a Bronze enactment
    (:func:`_bronze_run`'s inputs), plus a ``--trace`` input if asked."""
    sub_parser.add_argument("--pairs", type=int, default=12)
    sub_parser.add_argument("--config", default=config)
    sub_parser.add_argument("--seed", type=int, default=42)
    sub_parser.add_argument(
        "--testbed", choices=["egee", "faulty", "chaotic"], default="egee",
        help="grid to run on: the EGEE-like production grid, the "
        "fault-injected monitoring testbed, or the chaos testbed with "
        "outage schedules, transfer faults and replica repair "
        "(default: %(default)s)",
    )
    sub_parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="override the faulty/chaotic testbed's resubmission cap",
    )
    sub_parser.add_argument(
        "--no-repair", action="store_true",
        help="with --testbed chaotic: disable the background replica-repair "
        "daemon (the durability ablation)",
    )
    if trace:
        sub_parser.add_argument(
            "--trace", metavar="PATH",
            help="read an exported JSONL span stream (bronze --trace) "
            "instead of running a fresh enactment",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's evaluation from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="run the Table 1/2 sweep")
    table1.add_argument("--sizes", type=int, nargs="+", default=[12, 66, 126])
    table1.add_argument("--seed", type=int, default=42)
    table1.set_defaults(func=cmd_table1)

    diagrams = sub.add_parser("diagrams", help="regenerate Figures 4/5/6")
    diagrams.set_defaults(func=cmd_diagrams)

    bronze = sub.add_parser("bronze", help="run one Bronze Standard enactment")
    _add_run_options(bronze, config="SP+DP+JG")
    bronze.add_argument(
        "--trace", metavar="PATH",
        help="export the run's span stream as JSONL (read back with report-trace)",
    )
    bronze.add_argument(
        "--chrome-trace", metavar="PATH",
        help="export the run as Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    bronze.add_argument(
        "--monitor", action="store_true",
        help="attach the live run monitor and print streaming progress/ETA lines",
    )
    bronze.add_argument(
        "--alerts", metavar="PATH",
        help="write monitor alerts as JSONL (implies monitoring; "
        "flushed per line, tail -f friendly)",
    )
    bronze.add_argument(
        "--feedback", action="store_true",
        help="wire monitor feedback into the broker: demote/blacklist "
        "flagged CEs and proactively resubmit jobs queued on them",
    )
    bronze.add_argument(
        "--best-effort", action="store_true",
        help="contain per-item failures: exhausted jobs become dead "
        "letters and the run completes with the surviving items",
    )
    bronze.add_argument(
        "--strict", action="store_true",
        help="with --best-effort: exit 3 when the run lost any item "
        "(default: partial success exits 0)",
    )
    bronze.add_argument(
        "--journal", metavar="PATH",
        help="append-only enactment journal (WAL) of completed invocations",
    )
    bronze.add_argument(
        "--resume", action="store_true",
        help="replay the journal's completed invocations before "
        "executing the rest (requires --journal)",
    )
    bronze.add_argument(
        "--crash-after", type=int, metavar="N",
        help="simulate a crash after N completed invocations (exit 4); "
        "combine with --journal, then rerun with --resume",
    )
    bronze.add_argument(
        "--profile", metavar="PATH",
        help="install the hot-path profiler (deterministic tick clock) "
        "and write the profile JSON here after the run",
    )
    bronze.set_defaults(func=cmd_bronze)

    report = sub.add_parser(
        "report-trace", help="phase-breakdown + model-drift tables for a JSONL trace"
    )
    report.add_argument("trace", help="JSONL span stream (bronze --trace output)")
    report.set_defaults(func=cmd_report_trace)

    crit = sub.add_parser(
        "report-critical-path",
        help="observed gating chain with phase attribution (+ static diff)",
    )
    _add_run_options(crit, trace=True)
    crit.set_defaults(func=cmd_report_critical_path)

    gantt = sub.add_parser(
        "gantt", help="ASCII Gantt: invocations per processor, jobs per CE"
    )
    _add_run_options(gantt, trace=True)
    gantt.add_argument("--width", type=int, default=100, help="columns per lane")
    gantt.set_defaults(func=cmd_gantt)

    health = sub.add_parser(
        "report-health",
        help="per-CE health scores and the alert log (live run or replayed trace)",
    )
    _add_run_options(health, trace=True)
    health.set_defaults(func=cmd_report_health)

    failures = sub.add_parser(
        "report-failures",
        help="dead-letter report: what a best-effort run lost, and why",
    )
    _add_run_options(failures, trace=True)
    failures.add_argument(
        "--strict", action="store_true",
        help="exit 3 when the report contains any failure",
    )
    # dead letters only happen where faults do: default to the faulty grid
    failures.set_defaults(func=cmd_report_failures, testbed="faulty")

    durability = sub.add_parser(
        "report-durability",
        help="data-plane durability report for one best-effort chaos run: "
        "items delivered vs lost, repair traffic, transfer faults, alerts",
    )
    _add_run_options(durability)
    durability.add_argument(
        "--strict", action="store_true",
        help="exit 3 when the run lost any item",
    )
    # durability only means something where data can die: default chaotic
    durability.set_defaults(func=cmd_report_durability, testbed="chaotic")

    dataflow = sub.add_parser(
        "report-dataflow",
        help="byte-accounted data plane: top-talker links/services, "
        "per-link bandwidth sparklines, purpose breakdown",
    )
    _add_run_options(dataflow)
    dataflow.add_argument(
        "--dot", metavar="PATH",
        help="also export the site-to-site data-flow graph as Graphviz DOT",
    )
    dataflow.set_defaults(func=cmd_report_dataflow)

    record = sub.add_parser(
        "record-run", help="run one enactment and append its summary to a store"
    )
    _add_run_options(record)
    record.add_argument(
        "--store", default="runstore", metavar="DIR",
        help="run-store directory (created if missing; default: ./runstore)",
    )
    record.add_argument(
        "--note", default="", help="free-form annotation stored with the summary"
    )
    record.add_argument(
        "--out", metavar="PATH",
        help="additionally copy the summary JSON here (e.g. to commit a baseline)",
    )
    record.set_defaults(func=cmd_record_run)

    compare_runs = sub.add_parser(
        "compare-runs",
        help="diff a candidate run against a baseline golden (exit 1 on any change)",
    )
    compare_runs.add_argument(
        "baseline", help="run id, 'latest[:POLICY]', or a summary JSON path"
    )
    compare_runs.add_argument(
        "candidate", help="run id, 'latest[:POLICY]', or a summary JSON path"
    )
    compare_runs.add_argument(
        "--store", default="runstore", metavar="DIR",
        help="run-store directory the run ids resolve against",
    )
    compare_runs.set_defaults(func=cmd_compare_runs)

    profile = sub.add_parser(
        "profile",
        help="saved profiles (bronze --profile): report / diff / flame",
    )
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)

    p_report = profile_sub.add_parser("report", help="render a saved profile")
    p_report.add_argument("profile", help="profile JSON (bronze --profile)")
    p_report.set_defaults(func=cmd_profile_report)

    p_diff = profile_sub.add_parser(
        "diff", help="rank per-component movement between two profiles"
    )
    p_diff.add_argument("baseline", help="baseline profile JSON")
    p_diff.add_argument("candidate", help="candidate profile JSON")
    p_diff.set_defaults(func=cmd_profile_diff)

    p_flame = profile_sub.add_parser(
        "flame", help="export a flamegraph (collapsed stacks or speedscope)"
    )
    p_flame.add_argument("profile", help="profile JSON (bronze --profile)")
    p_flame.add_argument(
        "--format", choices=["collapsed", "speedscope"], default="collapsed",
        help="collapsed = Brendan Gregg flamegraph.pl input; speedscope = "
        "https://speedscope.app JSON (default %(default)s)",
    )
    p_flame.add_argument(
        "--out", metavar="PATH", help="write here instead of stdout"
    )
    p_flame.set_defaults(func=cmd_profile_flame)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
