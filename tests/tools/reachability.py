"""Record which functions under ``src/repro`` the documented entry points reach.

Usage, from anywhere (no flags; about seven minutes on two cores)::

    python tests/tools/reachability.py

The roots are what the program actually serves:

1. EXPERIMENTS.md: ``pytest benchmarks/`` (run with ``--benchmark-disable``,
   because pytest-benchmark clears ``sys.settrace`` inside
   ``benchmark.pedantic``; the same tests run, their bodies once each).
   This includes ``benchmarks/trajectory``'s own tests.
2. The trajectory: ``run.py --workload all --smoke``, plain and with
   ``--trace 1``.
3. Every ``run:`` block of ``.github/workflows/ci.yml`` outside the lint and
   tier-1 jobs (``pip install`` lines skipped, ``/tmp/`` rewritten to a
   private directory so store ids start from an empty store).
4. Every fenced ``python -m repro.*`` command in README.md, run in order in
   a private directory, plus ``examples/*.py``.

Unit tests are not a root: a test that exists only to exercise dead code is
part of that dead code.

Every Python process the roots start loads a ``sys.settrace`` /
``threading.settrace`` hook from a user-site ``.pth`` file (``PYTHONUSERBASE``
points at a temporary directory), so the hook survives ``PYTHONPATH=src``
and the trajectory's worker subprocesses.  ``settrace`` rather than
``setprofile``: the repository's own ``Profiler`` owns the profile hook.
Each process writes the code objects it ran under ``src/repro`` at exit.

The script regenerates ``REACHABILITY.md`` and exits 1 when a root command
fails, a module under ``src/repro`` is never imported, or an unreached def
has no verdict.  A failed command is retried untraced, because the tracer
slows every Python call and so breaks wall-clock overhead budgets.  An
unreached def is *wired* when other code under ``src/`` loads its name and
its class is live (a def of it reached, or the class named elsewhere);
anything else needs a verdict in ``KEPT`` below, or deleting.
"""
from __future__ import annotations

import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "REACHABILITY.md"

# Unreached defs kept on purpose.  Keys are module -> qualname (a class name
# covers its methods); values are the verdict.  A key naming no def is an error.
PINNED = "kept: public API (pinned by tests/test_public_api.py)"
PINNED_CLASS = "kept: public API (its class is pinned by tests/test_public_api.py)"
ROUND_TRIP = ("kept: test seam/reference (one side of a codec pair: the round-trip tests "
              "check the other side against it)")
OBSERVED = "kept: test seam/reference (the state query the tests assert through)"
LIVE_REPLAY = "kept: test seam/reference (live == replay is checked against it)"
HOOK_CALLEE = "kept: hook (called from Profiler._hook, which settrace cannot see)"
KEPT = {
    "repro.apps.imaging": {
        "ImageDatabase.patients_of": PINNED_CLASS,
        "MedicalImage.compressed_bytes": OBSERVED,
    },
    "repro.apps.transforms": {
        "RigidTransform": PINNED_CLASS,
        "rotation_angle_deg": "kept: test seam/reference (measures registration error in tests)",
    },
    "repro.cache.store": {
        "InMemoryStore": "kept: test seam/reference (the in-process store the cache tests "
                         "substitute)",
        "entry_to_document": ROUND_TRIP,
    },
    "repro.core.config": {"OptimizationConfig": PINNED_CLASS},
    "repro.core.iteration": {"IterationEngine.buffered": OBSERVED},
    "repro.core.failures": {"FailureReport.by_service": OBSERVED},
    "repro.core.provenance": {
        "HistoryTree": PINNED_CLASS,
        "compatible": "kept: test seam/reference (the dot-matcher oracle compares against it)",
    },
    "repro.core.trace": {"ExecutionTrace": PINNED_CLASS},
    "repro.experiments.harness": {"SweepResult.table1": OBSERVED},
    "repro.grid.load": {"BackgroundLoad": "kept: calibration (a load knob a fit of the Table 1 "
                                          "cells would sweep)"},
    "repro.grid.overhead": {"OverheadModel.total_mean": "kept: test seam/reference (the "
                                                         "testbed calibration tests check it)"},
    "repro.grid.retry": {"RetryBudget.remaining": OBSERVED},
    "repro.grid.storage": {"StorageElement": OBSERVED, "ReplicaCatalog": OBSERVED},
    "repro.model.speedup": {"constant_time_makespans": "kept: test seam/reference (closed-form "
                                                      "reference for the speed-up tests)"},
    "repro.observability.alerts": {"alerts_to_jsonl": ROUND_TRIP},
    "repro.observability.bus": {"InMemoryCollector.named": OBSERVED,
                                "chrome_trace_json": ROUND_TRIP},
    "repro.observability.dataflow.collector": {
        "DataFlowCollector.watch_network": "kept: test seam/reference (attaches the ledger to "
                                           "a bare NetworkModel)",
    },
    "repro.observability.health": {
        "robust_stats": "kept: test seam/reference (one-shot form of RollingSample.stats; the "
                        "window oracle checks the incremental statistics against it)",
    },
    "repro.observability.monitor": {"RunMonitor.summary": LIVE_REPLAY},
    "repro.observability.ops.audit": {"audit_events_from_jsonl": ROUND_TRIP},
    "repro.observability.ops.rollup": {"ControlPlaneTelemetry.replay_audit": LIVE_REPLAY},
    "repro.observability.profiling.clock": {
        "ManualClock": "kept: test seam/reference (the clock tests substitute)",
    },
    "repro.observability.profiling.profiler": {
        "Profiler._hook": "kept: hook (runs inside the profile hook, which settrace cannot see)",
        "Profiler.depth": OBSERVED,
        "Profiler.enter": HOOK_CALLEE,
        "Profiler.exit": HOOK_CALLEE,
        "_scope_name": HOOK_CALLEE,
    },
    "repro.observability.spans": {"spans_to_jsonl": ROUND_TRIP},
    "repro.service.scheduler": {"EnactmentService.audit": LIVE_REPLAY},
    "repro.sim.engine": {"Engine": PINNED_CLASS},
    "repro.sim.resources": {"Store": PINNED, "Resource": PINNED_CLASS},
    "repro.taskbased.dag": {"StaticDag.edges": OBSERVED},
    "repro.workflow.builder": {"WorkflowBuilder": PINNED_CLASS},
    "repro.workflow.datasets": {"InputDataSet": PINNED_CLASS},
    "repro.workflow.graph": {"Workflow": PINNED_CLASS},
    "repro.workflow.patterns": {
        "figure2_workflow": "kept: test seam/reference (a canned workflow the tests build on)",
        "diamond_workflow": "kept: test seam/reference (a canned workflow the tests build on)",
    },
    "repro.workflow.render": {"to_dot": PINNED, "summarize": PINNED},
}

# What the deletion batches removed (module -> names), kept as the record
# the ledger prints; a name listed here must not be defined again.
DELETED = {
    "repro.apps.accuracy": ["_group_by_pair"],
    "repro.cache": ["ResultCache.key_for", "ResultCache.from_config",
                    "ResultCache._record_eviction"],
    "repro.cache.keys": ["fingerprint_value"],
    "repro.cache.policy": ["(module) CachePolicy"],
    "repro.cache.stats": ["CacheStats.record_eviction"],
    "repro.cache.store": ["FileStore._evict_to_fit", "FileStore._notify", "InMemoryStore._notify",
                          "FileStore._path", "FileStore._read", "FileStore._remove",
                          "estimate_entry_bytes", "_json_scalar", "_encode_datum",
                          "_decode_datum", "EntryLog._open", "_complete_lines"],
    "repro.core.config": ["OptimizationConfig.with_cache"],
    "repro.core.journal": ["EnactmentJournal._ensure_open", "JournalEntry",
                           "JournalEntry.to_document", "JournalEntry.from_document",
                           "EnactmentJournal._write", "EnactmentJournal._documents"],
    "repro.core.provenance": ["merged_lineage"],
    "repro.core.tokens": ["DataToken.payload_fingerprint"],
    "repro.experiments.analysis": ["JobStatistics.retry_fraction", "per_service_statistics"],
    "repro.experiments.reporting": ["format_metrics"],
    "repro.grid.batch": ["ShortestJobFirstPolicy"],
    "repro.grid.broker": ["ResourceBroker.queue_length", "_RoundRobin", "_rank_least_loaded",
                          "_rank_random"],
    "repro.grid.faults": ["FaultModel.expected_attempts", "OutageSchedule.generate",
                          "OutageSchedule.subjects"],
    "repro.grid.job": ["JobFailedError.attempt_failures", "JobDescription.with_name",
                       "total_compute_mean"],
    "repro.grid.storage": ["ReplicaCatalog.on_register"],
    "repro.grid.transfer": ["NetworkModel.on_transfer", "NetworkModel.remove_observer",
                            "NetworkModel.set_link"],
    "repro.model.probabilistic": ["expected_stage_barrier_makespan",
                                  "expected_pipelined_makespan",
                                  "GranularityModel.best_group_size"],
    "repro.observability.bus": ["InMemoryCollector.for_job", "InMemoryCollector.children_of"],
    "repro.observability.dataflow.report": ["link_activity"],
    "repro.observability.drift": ["DriftReport.within"],
    "repro.observability.health": ["RollingSample.z"],
    "repro.observability.logbridge": ["get_logger", "LoggingSubscriber"],
    "repro.observability.metrics": ["MetricsSnapshot.gauge_peak", "HistogramSnapshot.minimum",
                                    "HistogramSnapshot.maximum"],
    "repro.observability.monitor": ["ServiceProgress.pending", "ServiceProgress.fraction"],
    "repro.observability.profiling.churn": ["(module) MemoryTracker"],
    "repro.observability.profiling.profiler": ["Profiler.reset"],
    "repro.observability.timeline": ["ce_utilization", "ce_queue_depth"],
    "repro.service.api": ["SubmitRequest", "TenantStatus", "ServiceStatus", "TelemetryStatus",
                          "telemetry_status"],
    "repro.service.logic": ["pick_next"],
    "repro.service.scheduler": ["EnactmentService.telemetry_status",
                                "EnactmentService.active_runs"],
    "repro.services.composite": ["CompositeService.stage_port_for_input",
                                 "CompositeService.stage_port_for_output"],
    "repro.services.descriptor": ["ExecutableDescriptor.file_inputs",
                                  "ExecutableDescriptor.parameters"],
    "repro.services.gridrpc": ["(module) GridRpcClient"],
    "repro.services.invocation": ["(module) AsyncInvoker, SyncInvoker, gather"],
    "repro.services.registry": ["ServiceRegistry.unregister", "ServiceRegistry.find_by_ports",
                                "ServiceRegistry.find_by_tag"],
    "repro.services.soap": ["(module) SoapBinding, build_envelope, parse_envelope"],
    "repro.sim.engine": ["Interrupt", "Process.interrupt", "Process.is_alive"],
    "repro.taskbased.dag": ["StaticDag.roots"],
    "repro.util.distributions": ["Exponential", "Empirical", "Shifted"],
    "repro.util.rng": ["RandomStreams.fork"],
    "repro.util.stats": ["LinearFit.predict", "summarize", "Summary"],
    "repro.util.validation": ["(module) require_positive, require_non_negative, require_in, "
                              "require_type"],
    "repro.workflow.analysis": ["all_paths", "critical_path_length"],
}

# README commands whose non-zero exit is the documented behaviour.
EXPECTED_EXIT = {"--crash-after 6": 4}

# Inputs a README command reads that no earlier README command writes.
PREPARE = {
    "compare-runs baseline.json latest": "python -m repro.experiments record-run "
    "--store runstore --config SP+DP --pairs 12 --out baseline.json",
    "profile diff baseline.json candidate.json": "cp profile.json baseline.json && "
    "cp profile.json candidate.json",
}

HOOK = '''\
import atexit, os, sys, threading

_SEEN = {{}}


def _trace(frame, event, arg, _seen=_SEEN):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code  # holding the code object keeps its id unique
    return None


def _dump():
    rows = sorted({{(os.path.abspath(c.co_filename), c.co_firstlineno, c.co_qualname)
                   for c in list(_SEEN.values())}})
    rows = [row for row in rows if row[0].startswith({src!r})]
    if rows:
        path = os.path.join({out!r}, "%d-%d.tsv" % (os.getpid(), id(rows)))
        with open(path, "w") as handle:
            handle.writelines("%s\\t%d\\t%s\\n" % row for row in rows)


sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_dump)
'''


# ------------------------------------------------------------------ the defs


class Def:
    __slots__ = ("module", "qualname", "path", "line", "lines", "parent", "classes")

    def __init__(self, module, qualname, path, line, lines, parent, classes):
        self.module = module
        self.qualname = qualname
        self.path = path
        self.line = line
        self.lines = lines
        self.parent = parent
        self.classes = classes


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def collect_defs():
    """Every function def under src/repro, keyed by (file, first code line)."""
    defs = {}

    def walk(node, module, path, prefix, parent, classes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                entry = Def(module, qualname, path, first,
                            child.end_lineno - first + 1, parent, classes)
                defs[(str(path), first)] = entry
                walk(child, module, path, qualname + ".<locals>.", entry, classes)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".", parent,
                     classes + (child.name,))
            else:
                walk(child, module, path, prefix, parent, classes)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), module_name(path), path, "", None, ())
    return defs


def references():
    """(kind, name) -> "module:owner" sites that load it, outside imports and
    ``__all__``; kind is "attr" for ``x.name`` and "name" for a bare name.
    ("import", name) -> the modules that import *name* or import from it."""
    sites = defaultdict(set)

    def walk(node, where, separator):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    sites[("import", alias.name)].add(where.split(":")[0])
                sites[("import", child.module)].add(where.split(":")[0])
                continue
            if isinstance(child, ast.Import):
                continue
            if isinstance(child, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in child.targets
            ):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{where}{separator}{child.name}", ".")
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                sites[("name", child.id)].add(where)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                sites[("attr", child.attr)].add(where)
            walk(child, where, separator)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), module_name(path), ":")
    return sites


def wired_by(entry: Def, sites, live_classes) -> str | None:
    """The first src/ site that references this def, else None.  Its classes
    must be live too: some def of theirs reached, or named outside them."""
    own = f"{entry.module}:{entry.qualname.replace('.<locals>', '')}"
    for depth, cls in enumerate(entry.classes, 1):
        if (entry.module, entry.classes[:depth]) in live_classes:
            continue
        named = sites.get(("name", cls), set()) | sites.get(("attr", cls), set())
        if not any(not s.startswith(f"{entry.module}:{cls}") for s in named):
            return None
    name = entry.qualname.rsplit(".", 1)[-1]
    if name.startswith("__") and name.endswith("__"):
        return f"the data model of {entry.classes[-1]}" if entry.classes else None
    named = set(sites.get(("attr", name), ()))
    if not entry.classes:
        named |= sites.get(("name", name), set())
    # prefer a site in the same module, then one in a module importing the owner
    owner = entry.classes[0] if entry.classes else name
    importers = sites.get(("import", owner), set()) | sites.get(("import", entry.module), set())

    def tier(site):
        module = site.split(":")[0]
        return 0 if module == entry.module else 1 if module in importers else 2

    users = sorted((tier(s), s) for s in named if s != own and not s.startswith(own + "."))
    return users[0][1] if users else None


def verdict_for(entry: Def) -> str | None:
    kept = KEPT.get(entry.module, {})
    parts = entry.qualname.split(".")
    for end in range(len(parts), 0, -1):
        verdict = kept.get(".".join(parts[:end]))
        if verdict:
            return verdict
    return None


# ----------------------------------------------------------------- the roots


def ci_blocks():
    """(job, step name, script) for every ci.yml run: block outside lint/tests."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    blocks, job, step = [], None, None
    i = 0
    while i < len(lines):
        line = lines[i]
        m = re.match(r"^  ([\w-]+):\s*$", line)
        if m:
            job = m.group(1)
        m = re.match(r"^\s*- name:\s*(.*)$", line)
        if m:
            step = m.group(1)
        m = re.match(r"^(\s*)run:\s*(.*)$", line)
        if m:
            indent, inline = len(m.group(1)), m.group(2)
            if inline not in ("|", "|-"):
                script = inline
            else:
                body = []
                i += 1
                while i < len(lines) and (not lines[i].strip()
                                          or len(lines[i]) - len(lines[i].lstrip()) > indent):
                    body.append(lines[i])
                    i += 1
                i -= 1
                margin = min(len(b) - len(b.lstrip()) for b in body if b.strip())
                script = "\n".join(b[margin:] for b in body)
            if job not in ("lint", "tests") and "pip install" not in script:
                blocks.append((job, step, script))
        i += 1
    return blocks


def fenced_commands(path: Path) -> list:
    """Every fenced ``python -m repro.*`` command in *path*, joined and uncommented."""
    commands, fenced, pending = [], False, None
    for line in path.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        if pending is not None:
            pending += " " + line.strip().rstrip("\\").strip()
            if not line.rstrip().endswith("\\"):
                commands.append(pending)
                pending = None
            continue
        if line.startswith("python -m repro."):
            text = re.sub(r"\s+#.*$", "", line).strip()
            if text.endswith("\\"):
                pending = text.rstrip("\\").strip()
            else:
                commands.append(text)
    return commands


class Runner:
    def __init__(self, env: dict, plain_env: dict):
        self.env = env
        self.plain_env = plain_env
        self.failures = []

    def run(self, label, argv, cwd, expect=0, retry=None):
        """Run one root command traced; if it fails, run *retry* (default: the
        same command) untraced.  The tracer multiplies the cost of every Python
        call, which can break a wall-clock overhead budget without changing
        what runs; a command that passes untraced is not a failed root."""
        start = time.monotonic()
        done = subprocess.run(argv, cwd=cwd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        status = "ok" if done.returncode == expect else "FAIL"
        if status == "FAIL":
            again = subprocess.run(retry or argv, cwd=cwd, env=self.plain_env,
                                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if again.returncode == expect:
                status = "ok untraced"
            else:
                tail = "\n".join(done.stdout.splitlines()[-15:])
                self.failures.append(f"{label}: exit {done.returncode}, expected {expect}\n{tail}")
        print(f"  [{status}] {time.monotonic() - start:6.1f}s  {label}", flush=True)

    def serve_and_scrape(self, command, cwd):
        """Start ``metrics --serve``, scrape it once, stop it with Ctrl-C."""
        start = time.monotonic()
        process = subprocess.Popen(["bash", "-c", f"exec {command}"], cwd=cwd, env=self.env,
                                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        port = re.search(r"--port (\d+)", command).group(1)
        body = None
        try:
            for _ in range(300):
                try:
                    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                                timeout=5) as response:
                        body = response.read()
                    break
                except OSError:
                    time.sleep(0.1)
        finally:
            process.send_signal(signal.SIGINT)
            output = process.communicate(timeout=60)[0]
        ok = body is not None and process.returncode == 0
        print(f"  [{'ok' if ok else 'FAIL'}] {time.monotonic() - start:6.1f}s  {command}",
              flush=True)
        if not ok:
            self.failures.append(f"{command}: scrape={'ok' if body else 'none'}, "
                                 f"exit {process.returncode}\n{output[-2000:]}")


def run_roots(work: Path, records: Path) -> list:
    userbase = work / "userbase"
    site = userbase / "lib" / f"python{sys.version_info[0]}.{sys.version_info[1]}" / "site-packages"
    site.mkdir(parents=True)
    (site / "_reachability_hook.py").write_text(
        HOOK.format(src=str(PACKAGE) + os.sep, out=str(records)))
    (site / "_reachability_hook.pth").write_text("import _reachability_hook\n")
    plain_env = {k: v for k, v in os.environ.items()
                 if k not in ("PYTHONNOUSERSITE", "PYTHONPATH", "PYTHONUSERBASE")}
    plain_env.update(PYTHONPATH=str(SRC), REPRO_RUNSTORE=str(work / "runstore"))
    runner = Runner(dict(plain_env, PYTHONUSERBASE=str(userbase)), plain_env)
    python = sys.executable

    print("root 1: pytest benchmarks/", flush=True)
    pytest = [python, "-m", "pytest", "benchmarks/", "-q", "--benchmark-disable",
              "-o", f"cache_dir={work / 'pytest-cache'}"]
    runner.run("pytest benchmarks/ --benchmark-disable", pytest, ROOT,
               retry=pytest + ["--last-failed"])

    print("root 2: trajectory smoke", flush=True)
    for extra in ([], ["--trace", "1"]):
        runner.run(" ".join(["run.py --workload all --smoke", *extra]),
                   [python, "benchmarks/trajectory/run.py", "--workload", "all", "--smoke",
                    *extra], ROOT)

    print("root 3: ci.yml run blocks", flush=True)
    tmp = work / "tmp"
    tmp.mkdir()
    for job, step, script in ci_blocks():
        script = script.replace("/tmp/", f"{tmp}/")
        runner.run(f"{job}: {step}", ["bash", "-eo", "pipefail", "-c", script], ROOT)

    print("root 4: README commands and examples", flush=True)
    cwd = work / "readme"
    (cwd / "benchmarks" / "baselines").mkdir(parents=True)
    for command in fenced_commands(ROOT / "README.md"):
        for marker, setup in PREPARE.items():
            if marker in command:
                runner.run(f"(prepare) {setup}", ["bash", "-eo", "pipefail", "-c", setup], cwd)
        if "--serve" in command:
            runner.serve_and_scrape(command, cwd)
            continue
        expect = next((code for marker, code in EXPECTED_EXIT.items() if marker in command), 0)
        runner.run(command, ["bash", "-eo", "pipefail", "-c", command], cwd, expect=expect)
    for example in sorted((ROOT / "examples").glob("*.py")):
        runner.run(f"examples/{example.name}", [python, str(example)], cwd)
    return runner.failures


# ---------------------------------------------------------------- the ledger


def reached_keys(records: Path):
    reached = set()
    for path in records.glob("*.tsv"):
        for line in path.read_text().splitlines():
            filename, first, _ = line.split("\t")
            reached.add((filename, int(first)))
    return reached


def build_ledger(defs, reached):
    sites = references()
    live_classes = {(d.module, d.classes[:depth]) for key, d in defs.items() if key in reached
                    for depth in range(1, len(d.classes) + 1)}
    problems = []
    imported = {module_name(Path(f)) for f, _ in reached}
    modules = sorted({d.module for d in defs.values()} | {
        module_name(p) for p in PACKAGE.rglob("*.py")})
    for module in modules:
        if module not in imported:
            problems.append(f"module {module} is never imported by any root")

    counts = defaultdict(lambda: [0, 0])
    groups = defaultdict(list)  # (module, verdict) -> names
    unreached_lines = 0
    for key, entry in sorted(defs.items(), key=lambda kv: (kv[1].module, kv[1].line)):
        hit = key in reached
        counts[entry.module][0] += 1
        counts[entry.module][1] += hit
        if hit:
            continue
        # an unreached def inside an unreached def shares its verdict
        if entry.parent is not None and (str(entry.parent.path), entry.parent.line) not in reached:
            continue
        unreached_lines += entry.lines
        verdict = verdict_for(entry)
        name = entry.qualname
        if verdict is None:
            caller = (f"{entry.parent.qualname} (enclosing)" if entry.parent is not None
                      else wired_by(entry, sites, live_classes))
            if caller is None:
                problems.append(f"unreached def {entry.module}:{entry.qualname} has no "
                                "verdict and no caller in src/")
                verdict = "NO VERDICT"
            else:
                verdict = "kept: wired"
                name = f"{entry.qualname} ← {caller}"
        groups[(entry.module, verdict)].append(name)

    for module, names in DELETED.items():
        for name in names:
            if any(d.module == module and d.qualname == name for d in defs.values()):
                problems.append(f"{module}:{name} is listed as deleted but still defined")
    for module, kept in KEPT.items():
        for name in kept:
            if not any(d.module == module and (d.qualname == name or d.qualname.startswith(
                    name + ".")) for d in defs.values()):
                problems.append(f"KEPT names {module}:{name}, which is not defined")

    total = sum(c[0] for c in counts.values())
    hits = sum(c[1] for c in counts.values())
    out = [
        "# Reachability ledger",
        "",
        "Generated by `python tests/tools/reachability.py`; do not edit by hand.",
        "The roots are `pytest benchmarks/`, the trajectory smoke (plain and",
        "`--trace 1`), every `ci.yml` run block outside lint and tier-1, and the",
        "fenced `python -m repro.*` commands in README.md plus `examples/*.py`.",
        "Unit tests are not a root.",
        "",
        "An unreached def is *wired* when other code under `src/` names it (the",
        "first such site is shown after `←`); every other unreached def carries",
        "a verdict from the recorder's `KEPT` table, or is deleted.  Defs nested",
        "in an unreached def are counted, not listed.",
        "",
        f"**{total} defs, {hits} reached, {total - hits} unreached** "
        f"({unreached_lines} lines in the listed unreached defs).",
        "",
        "## Per module",
        "",
        "| module | defs | reached | unreached |",
        "|---|---:|---:|---:|",
    ]
    for module in sorted(counts):
        n, hit = counts[module]
        out.append(f"| `{module}` | {n} | {hit} | {n - hit} |")
    out += ["", "## Unreached defs by verdict", ""]
    for (module, verdict), names in sorted(groups.items(),
                                           key=lambda kv: (kv[0][1], kv[0][0])):
        out.append(f"- `{module}` · {verdict}: {', '.join(f'`{n}`' for n in names)}")
    if DELETED:
        out += ["", "## Deleted so far", ""]
        for module in sorted(DELETED):
            out.append(f"- `{module}` · deleted: {', '.join(f'`{n}`' for n in DELETED[module])}")
    return "\n".join(out) + "\n", problems


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="reachability-"))
    try:
        records = work / "records"
        records.mkdir()
        failures = run_roots(work, records)
        defs = collect_defs()
        text, problems = build_ledger(defs, reached_keys(records))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    LEDGER.write_text(text)
    for failure in failures:
        print(f"root failed: {failure}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"wrote {LEDGER.relative_to(ROOT)}")
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
