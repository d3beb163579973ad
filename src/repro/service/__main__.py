"""Command-line front for the multi-tenant enactment service.

``python -m repro.service --help`` lists the commands, and
``python -m repro.service <command> --help`` their options.

Every command runs inside one front half, :func:`_opened`: it opens the
control-plane state (``--state``, SQLite by default, so runs and
tenants persist across commands; ``--store memory`` for a throwaway
one), builds an :class:`~repro.service.scheduler.EnactmentService` over
it for the commands that change runs, and closes both on every exit
path.

``tenants``, ``submit``, ``status`` and ``cancel`` manage tenants and
runs.  ``submit`` only enqueues; ``drain`` executes everything queued
(after recovering runs a previous, killed process left in flight —
their journals replay to identical results).  ``demo`` replays an
embedded multi-tenant traffic script end to end and prints per-tenant
fairness numbers.

The observability commands read the persisted control plane, so they
work from a different process than the one draining: ``audit``
explains any run's decision history from the store's audit trail,
``metrics`` renders per-tenant rollups as Prometheus text, and ``top``
prints one ops-console frame.  ``--telemetry`` attaches an
instrumentation bus to commands that execute runs; ``--alerts`` streams
``slo-burn`` alerts to a JSONL file; ``--slo kind=value`` overrides the
default objectives; ``--profile PATH`` installs the deterministic
hot-path profiler and writes the profile
(``repro.observability.profiling``) after the command drains.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro.observability import InstrumentationBus
from repro.observability.alerts import JsonlAlertWriter, alerts_from_jsonl
from repro.observability.logbridge import cli_logger
from repro.observability.ops import (
    ControlPlaneTelemetry,
    SLOTracker,
    audit_events_to_jsonl,
    explain_run,
    parse_slo,
    render_prometheus,
    render_top,
    rollups_from_records,
)
from repro.observability.profiling import Profiler, TickClock
from repro.observability.runstore import RunStore
from repro.service.logic import RunRecord, RunState, TenantSpec
from repro.service.scheduler import EnactmentService, EnactmentServiceError
from repro.service.store import InMemoryStateStore, SQLiteStateStore, StateStore

#: the embedded demo traffic: three unequal tenants, eight runs,
#: submissions staggered in simulated time
DEMO_SCRIPT: Dict[str, object] = {
    "tenants": [
        {"name": "alice", "weight": 2.0, "max_concurrent_runs": 2},
        {"name": "bob", "weight": 1.0, "max_concurrent_runs": 2},
        {"name": "carol", "weight": 1.0, "max_concurrent_runs": 1, "max_grid_jobs": 12},
    ],
    "runs": [
        {"tenant": "alice", "n_items": 2, "config_label": "SP+DP"},
        {"tenant": "alice", "n_items": 2, "config_label": "SP+DP"},
        {"tenant": "bob", "n_items": 2, "config_label": "SP+DP"},
        {"tenant": "bob", "n_items": 2, "config_label": "SP+DP+JG"},
        {"tenant": "carol", "n_items": 2, "config_label": "SP+DP"},
        {"tenant": "carol", "n_items": 2, "config_label": "SP"},
        {"tenant": "alice", "n_items": 2, "config_label": "SP+DP", "not_before": 300.0},
        {"tenant": "bob", "n_items": 2, "config_label": "SP+DP", "not_before": 600.0},
    ],
}


@contextlib.contextmanager
def _opened(
    args: argparse.Namespace,
) -> Iterator[Tuple[StateStore, Optional[EnactmentService]]]:
    """The one front half: ``(store, service)``, closed on every exit path.

    The service (None for the read-only commands) gets the global
    options: policy, run cap, seed, run store, bus, SLOs, alert sink and
    a deterministic-clock profiler, so a service-level profile is
    byte-identical across same-seed runs.
    """
    store = InMemoryStateStore() if args.store == "memory" else SQLiteStateStore(args.state)
    service = None
    try:
        if args.needs_service:
            service = EnactmentService(
                store,
                policy=args.policy,
                max_concurrent_runs=args.max_runs,
                seed=args.seed,
                runstore=RunStore(args.runstore) if args.runstore else None,
                instrumentation=InstrumentationBus() if args.telemetry else None,
                slos=args.slo,
                alert_sinks=[JsonlAlertWriter(args.alerts)] if args.alerts else None,
                profiler=(
                    Profiler(clock=TickClock(), label="service drain")
                    if args.profile
                    else None
                ),
            )
        yield store, service
    finally:
        # the service closes the store along with its in-flight journals
        (store if service is None else service).close()


def _write_profile(args: argparse.Namespace, service: EnactmentService, out) -> None:
    """Save the installed profiler's snapshot if ``--profile`` was given."""
    profiler = service.profiler
    if profiler is None:
        return
    profile = profiler.snapshot()
    path = profile.save(args.profile)
    out.info(
        f"profile: {profile.total_time * 1000:.1f} ms accounted "
        f"({profile.clock} clock) -> {path}"
    )


def _print_runs(out, runs: List[RunRecord]) -> None:
    if not runs:
        out.info("no runs")
        return
    out.info(
        f"{'run':<10} {'tenant':<8} {'state':<10} {'config':<9} "
        f"{'pairs':>5} {'makespan':>10}  error"
    )
    for run in runs:
        makespan = f"{run.makespan:.1f}" if run.makespan is not None else "-"
        out.info(
            f"{run.run_id:<10} {run.tenant:<8} {run.state.value:<10} "
            f"{run.config_label:<9} {run.n_items:>5} {makespan:>10}  "
            f"{run.error or ''}"
        )


def cmd_tenants(args: argparse.Namespace, store: StateStore, service: None) -> int:
    out = cli_logger()
    if args.add:
        spec = TenantSpec(
            name=args.add, weight=args.weight, max_concurrent_runs=args.max_tenant_runs
        )
        store.upsert_tenant(spec)
        out.info(f"tenant {spec.name!r} registered: {spec.to_dict()}")
        return 0
    tenants = store.tenants()
    if not tenants:
        out.info("no tenants (register one with: tenants --add NAME)")
        return 0
    for spec in sorted(tenants.values(), key=lambda s: s.name):
        out.info(json.dumps(spec.to_dict(), sort_keys=True))
    return 0


def cmd_submit(args: argparse.Namespace, store: StateStore, service: EnactmentService) -> int:
    out = cli_logger()
    run = service.submit(
        tenant=args.tenant,
        n_items=args.pairs,
        config_label=args.config,
        seed=args.run_seed,
    )
    out.info(f"queued {run.run_id} for tenant {run.tenant!r} "
             f"({run.n_items} pairs, {run.config_label}, seed {run.seed})")
    out.info("execute with: python -m repro.service drain")
    return 0


def cmd_status(args: argparse.Namespace, store: StateStore, service: None) -> int:
    out = cli_logger()
    if args.run_id:
        run = store.get_run(args.run_id)
        if run is None:
            out.error(f"unknown run {args.run_id!r}")
            return 1
        out.info(json.dumps(run.to_dict(), indent=2, sort_keys=True))
        return 0
    _print_runs(out, store.runs())
    return 0


def cmd_cancel(args: argparse.Namespace, store: StateStore, service: EnactmentService) -> int:
    run = service.cancel(args.run_id)
    cli_logger().info(f"{run.run_id}: {run.state.value} ({run.error or 'no error'})")
    return 0


def cmd_drain(args: argparse.Namespace, store: StateStore, service: EnactmentService) -> int:
    out = cli_logger()
    for run in service.recover():
        out.info(f"recovered {run.run_id} (resume={run.resume})")
    _print_runs(out, service.drain())
    _write_profile(args, service, out)
    return 0


def _offline_state(args: argparse.Namespace, store: StateStore):
    """Rollups + SLO statuses rebuilt from the persisted control plane.

    This is the cross-process path (``metrics`` / ``top``): no live
    telemetry exists here, so the rollups come from the stored run
    records, tenant specs and fair-share snapshot.
    """
    tenants = store.tenants()
    usage = {
        tenant: amount for tenant, (amount, _stamp) in store.load_usage().items()
    }
    weights = {name: spec.weight for name, spec in tenants.items()}
    telemetry = ControlPlaneTelemetry()
    for rollup in rollups_from_records(store.runs(), weights=weights, usage=usage):
        telemetry.tenants[rollup.tenant] = rollup
    for name, spec in tenants.items():  # tenants with no runs yet
        rollup = telemetry.tenant(name)
        rollup.weight = spec.weight
        if name in usage:
            rollup.usage = usage[name]
    tracker = SLOTracker(slos=args.slo, telemetry=telemetry)
    return telemetry.rollups(), tracker.statuses()


def cmd_audit(args: argparse.Namespace, store: StateStore, service: None) -> int:
    out = cli_logger()
    run_id: Optional[str] = args.run_id
    events = store.audit_events()
    own = events if run_id is None else [e for e in events if e.run_id == run_id]
    if not own and run_id is not None and store.get_run(run_id) is None:
        out.error(f"unknown run {run_id!r}")
        return 1
    if args.json:
        print(audit_events_to_jsonl(own))
        return 0
    lines = explain_run(events, run_id=run_id)
    if not lines:
        out.info("no audit events")
        return 0
    for line in lines:
        out.info(line)
    return 0


def cmd_metrics(args: argparse.Namespace, store: StateStore, service: None) -> int:
    rollups, statuses = _offline_state(args, store)
    text = render_prometheus(rollups, slo_statuses=statuses)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        cli_logger().info(f"wrote {len(text.splitlines())} metric lines to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_top(args: argparse.Namespace, store: StateStore, service: None) -> int:
    rollups, statuses = _offline_state(args, store)
    alerts = []
    if args.alerts and os.path.exists(args.alerts):
        with open(args.alerts, "r", encoding="utf-8") as handle:
            alerts = alerts_from_jsonl(handle.read())
    sys.stdout.write(
        render_top(
            rollups,
            slo_statuses=statuses,
            alerts=alerts,
            title=f"enactment service [{args.state}]",
        )
    )
    return 0


def _tenant_spread(runs: List[RunRecord]) -> Dict[str, float]:
    """Per-tenant mean completion time (simulated) of DONE runs."""
    finished: Dict[str, List[float]] = {}
    for run in runs:
        if run.state is RunState.DONE and run.finished_at is not None:
            finished.setdefault(run.tenant, []).append(run.finished_at)
    return {
        tenant: sum(stamps) / len(stamps) for tenant, stamps in sorted(finished.items())
    }


def cmd_demo(args: argparse.Namespace, store: StateStore, service: EnactmentService) -> int:
    out = cli_logger()
    for payload in DEMO_SCRIPT["tenants"]:
        service.add_tenant(TenantSpec.from_dict(payload))
    for payload in DEMO_SCRIPT["runs"]:
        run = service.submit(
            tenant=str(payload["tenant"]),
            n_items=int(payload.get("n_items", 2)),
            config_label=str(payload.get("config_label", "SP+DP")),
            seed=payload.get("seed"),
            not_before=float(payload.get("not_before", 0.0)),
        )
        out.info(f"submitted {run.run_id} ({run.tenant}, nb={run.not_before:g})")
    runs = service.drain()
    _print_runs(out, runs)
    done = [r for r in runs if r.state is RunState.DONE]
    out.info(
        f"{len(done)}/{len(runs)} runs DONE under {args.policy!r} "
        f"(simulated end: {service.engine.now:.1f}s)"
    )
    for tenant, mean in _tenant_spread(runs).items():
        out.info(f"  {tenant:<8} mean completion {mean:10.1f}s")
    for rollup in service.telemetry.rollups():
        if rollup.tenant == ControlPlaneTelemetry.UNTAGGED:
            continue
        out.info(
            f"  {rollup.tenant:<8} rollup: done={rollup.done} "
            f"failed={rollup.failed} jobs={rollup.jobs_completed} "
            f"cpu={rollup.cpu_seconds:.0f}s "
            f"wait_p95={rollup.queue_wait_p95():.0f}s "
            f"usage={rollup.usage:.0f}"
        )
    burns = service.slo_tracker.alerts
    out.info(f"slo burns: {len(burns)}")
    for alert in burns:
        out.info(f"  [t={alert.time:.1f}s] {alert.subject}: {alert.message}")
    perf = service.perf_counters()
    if "perf.events_per_sec" in perf:
        out.info(
            f"throughput: {perf['perf.events_per_sec']:.0f} engine events/s "
            f"over {perf['perf.ticks']:.0f} ticks"
        )
    _write_profile(args, service, out)
    return 0 if len(done) == len(runs) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="multi-tenant enactment service (simulated grid)",
    )
    parser.add_argument(
        "--state",
        default="service-state",
        help="control-plane state directory (SQLite store; default %(default)s)",
    )
    parser.add_argument(
        "--store",
        choices=("sqlite", "memory"),
        default="sqlite",
        help="state backend (memory = ephemeral, for demos)",
    )
    parser.add_argument(
        "--policy",
        choices=("fair-share", "fifo"),
        default="fair-share",
        help="admission ordering (default %(default)s)",
    )
    parser.add_argument(
        "--max-runs",
        type=int,
        default=4,
        help="global concurrent-run cap (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="grid environment seed (default 0)"
    )
    parser.add_argument(
        "--runstore",
        default=None,
        help="optional run-summary store directory (repro.observability.runstore)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="attach an instrumentation bus (tenant-tagged spans feed the "
        "live rollups on commands that execute runs)",
    )
    parser.add_argument(
        "--alerts",
        default=None,
        metavar="PATH",
        help="stream slo-burn alerts to this JSONL file (top also reads it)",
    )
    parser.add_argument(
        "--slo",
        action="append",
        type=parse_slo,
        default=None,
        metavar="KIND=VALUE",
        help="override an objective, e.g. queue-wait=900 or "
        "success-rate=0.95:1.5 (repeatable; default: built-in SLOs)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="install the deterministic hot-path profiler and write the "
        "profile JSON here after drain/demo (inspect with: "
        "python -m repro.experiments profile report PATH)",
    )
    parser.set_defaults(needs_service=False)
    sub = parser.add_subparsers(dest="command", required=True)

    tenants = sub.add_parser("tenants", help="list or register tenants")
    tenants.add_argument("--add", metavar="NAME", help="register this tenant")
    tenants.add_argument("--weight", type=float, default=1.0)
    tenants.add_argument(
        "--max-tenant-runs", type=int, default=2, help="tenant concurrent-run quota"
    )
    tenants.set_defaults(func=cmd_tenants)

    submit = sub.add_parser("submit", help="queue one run")
    submit.add_argument("--tenant", required=True)
    submit.add_argument("--pairs", type=int, default=2, help="image pairs (default 2)")
    submit.add_argument(
        "--config", default="SP+DP", help="optimization label (default %(default)s)"
    )
    submit.add_argument("--run-seed", type=int, default=None, help="per-run seed")
    submit.set_defaults(func=cmd_submit, needs_service=True)

    status = sub.add_parser("status", help="show all runs, or one in detail")
    status.add_argument("run_id", nargs="?", default=None)
    status.set_defaults(func=cmd_status)

    cancel = sub.add_parser("cancel", help="cancel a queued or in-flight run")
    cancel.add_argument("run_id")
    cancel.set_defaults(func=cmd_cancel, needs_service=True)

    drain = sub.add_parser(
        "drain", help="recover + execute every queued run to completion"
    )
    drain.set_defaults(func=cmd_drain, needs_service=True)

    demo = sub.add_parser("demo", help="replay the embedded multi-tenant traffic script")
    demo.set_defaults(func=cmd_demo, needs_service=True)

    audit = sub.add_parser(
        "audit", help="explain the control plane's decision history"
    )
    audit.add_argument(
        "run_id", nargs="?", default=None,
        help="limit to one run (plus admissions that mention it)",
    )
    audit.add_argument(
        "--json", action="store_true", help="raw JSONL instead of prose"
    )
    audit.set_defaults(func=cmd_audit)

    metrics = sub.add_parser(
        "metrics", help="per-tenant rollups in Prometheus text format"
    )
    metrics.add_argument(
        "--out", default=None, metavar="PATH", help="write to a file (else stdout)"
    )
    metrics.set_defaults(func=cmd_metrics)

    top = sub.add_parser("top", help="print one frame of the ops console")
    top.set_defaults(func=cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _opened(args) as (store, service):
            return args.func(args, store, service)
    except EnactmentServiceError as exc:
        cli_logger().error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
