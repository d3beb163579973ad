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
3. Every ``run:`` block of ``.github/workflows/ci.yml`` outside the lint,
   tier-1 and reachability jobs (the last one runs this script;
   ``pip install`` lines skipped, ``/tmp/`` rewritten to a private directory
   so store ids start from an empty store).
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

Loads of a method name resolve by class where the receiver says which:

* ``self.m`` / ``cls.m`` inside class ``C`` reaches ``m`` as defined in
  ``C``, in a base of ``C`` (inherited) or in a subclass of ``C`` (an
  override the call dispatches to);
* ``C.m``, where ``C`` names a class under ``src/``, reaches ``m`` as
  defined in ``C`` or in a base of ``C``;
* ``x.m``, where ``x`` is a parameter annotated with ``src/`` classes
  (``C``, ``C | None``, ``Optional[C]``, ``Union[C, D]``; a ``Protocol``
  types nothing, since its implementations need not inherit it) or a local
  whose every binding in the function is ``x = C(...)``, reaches ``m`` as defined
  in those classes, their bases or their subclasses (a nested function
  sees the enclosing function's typed names unless it rebinds them);
* ``self.a.m`` / ``cls.a.m`` inside class ``C`` types ``self.a`` from every
  binding of ``a`` in ``C``'s hierarchy (bases and subclasses): ``self.a =``
  a typed local, ``C(...)``, a literal or a builtin container, an annotation
  in a method or the class body.  It reaches ``m`` as defined in those
  classes, their bases or their subclasses, and no def at all when every
  binding is a builtin value (``self._index = {}``).  One binding the rule
  cannot type, or a store of ``a`` on any other receiver anywhere under
  ``src/``, leaves ``self.a`` untyped;
* ``x.m`` on any other receiver reaches every method named ``m``.

Bases are matched by simple name, so two classes sharing a name share
their hierarchies; both that and the last rule err on the side of wired.
"""
from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "REACHABILITY.md"

# Unreached defs kept on purpose.  Keys are module -> qualname (a class name
# covers its methods); values are the verdict.  A key naming no def is an error.
ROUND_TRIP = ("kept: test seam/reference (one side of a codec pair: the round-trip tests "
              "check the other side against it)")
OBSERVED = "kept: test seam/reference (the state query the tests assert through)"
LIVE_REPLAY = "kept: test seam/reference (live == replay is checked against it)"
HOOK_CALLEE = "kept: reached (called from Profiler._hook, which settrace cannot see)"
GROUP_ALGEBRA = ("kept: test seam/reference (the group algebra over the quaternion kernels "
                 "that perturb and the distance metrics run on; the property and "
                 "rotation-library oracle tests check those kernels through it)")
KEPT = {
    "repro.apps.imaging": {"MedicalImage.compressed_bytes": OBSERVED},
    "repro.apps.transforms": {
        "rotation_angle_deg": "kept: test seam/reference (measures registration error in tests)",
        "RigidTransform.is_close": OBSERVED,
        "RigidTransform.compose": GROUP_ALGEBRA,
        "RigidTransform.inverse": GROUP_ALGEBRA,
        "RigidTransform.apply": GROUP_ALGEBRA,
    },
    "repro.cache.store": {
        "InMemoryStore": "kept: test seam/reference (the in-process store the cache tests "
                         "substitute)",
        "entry_to_document": ROUND_TRIP,
        "EntryLog.clear": "kept: test seam/reference (truncates a live log, so the tests can "
                          "check that another instance's stale offsets read as misses)",
    },
    "repro.core.iteration": {"IterationEngine.buffered": OBSERVED},
    "repro.core.journal": {"EnactmentJournal.runs": OBSERVED},
    "repro.core.failures": {"FailureReport.by_service": OBSERVED},
    "repro.core.provenance": {
        "HistoryTree.depth": OBSERVED,
        "compatible": "kept: test seam/reference (the dot-matcher oracle compares against it)",
    },
    "repro.core.trace": {"ExecutionTrace.count_by_kind": OBSERVED,
                         "ExecutionTrace.max_concurrency": OBSERVED},
    "repro.experiments.analysis": {"PhaseBreakdown.total": OBSERVED},
    "repro.experiments.harness": {"SweepResult.table1": OBSERVED},
    "repro.grid.load": {"BackgroundLoad": "kept: paper §5 (other users' load on the production "
                                          "grid, a knob a fit of the Table 1 cells would "
                                          "sweep)"},
    "repro.grid.resources": {"ComputingElement.completed": OBSERVED},
    "repro.grid.overhead": {"OverheadModel.total_mean": "kept: test seam/reference (the "
                                                         "testbed calibration tests check it)",
                            "OverheadSample.total": OBSERVED},
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
        "Profiler._hook": "kept: reached (runs inside the profile hook, which settrace cannot "
                          "see)",
        "Profiler.depth": OBSERVED,
        "Profiler.scope": "kept: test seam/reference (the profiler tests open scopes by hand "
                          "through it)",
        "Profiler.enter": HOOK_CALLEE,
        "Profiler.exit": HOOK_CALLEE,
        "_scope_name": HOOK_CALLEE,
    },
    "repro.observability.spans": {"spans_to_jsonl": ROUND_TRIP},
    "repro.service.scheduler": {"EnactmentService.audit": LIVE_REPLAY},
    "repro.sim.engine": {"Engine.events_scheduled": OBSERVED},
    "repro.sim.resources": {"Resource.in_use": OBSERVED, "Resource.queue_length": OBSERVED},
    "repro.taskbased.dag": {"StaticDag.edges": OBSERVED},
    "repro.workflow.analysis": {
        "services_on_critical_path": "kept: paper §3.5 (n_W, the services on the critical path "
                                     "in equations (1)-(4))",
    },
    "repro.workflow.datasets": {"InputDataSet.size": OBSERVED},
    "repro.workflow.patterns": {
        "figure2_workflow": "kept: test seam/reference (a canned workflow the tests build on)",
        "diamond_workflow": "kept: test seam/reference (a canned workflow the tests build on)",
    },
}

# What the deletion batches removed (module -> names), kept as the record
# the ledger prints; a name listed here must not be defined again.
DELETED = {
    "repro.apps.accuracy": ["_group_by_pair"],
    "repro.apps.imaging": ["ImageDatabase.patients_of"],
    "repro.apps.transforms": ["RigidTransform.identity"],
    "repro.cache": ["ResultCache.key_for", "ResultCache.from_config",
                    "ResultCache._record_eviction", "ResultCache.clear"],
    "repro.cache.keys": ["fingerprint_value"],
    "repro.cache.policy": ["(module) CachePolicy"],
    "repro.cache.stats": ["CacheStats.record_eviction"],
    "repro.cache.store": ["FileStore._evict_to_fit", "FileStore._notify", "InMemoryStore._notify",
                          "FileStore._path", "FileStore._read", "FileStore._remove",
                          "estimate_entry_bytes", "_json_scalar", "_encode_datum",
                          "_decode_datum", "EntryLog._open", "_complete_lines",
                          "ResultStore.clear"],
    "repro.core.config": ["OptimizationConfig.with_cache"],
    "repro.core.journal": ["EnactmentJournal._ensure_open", "JournalEntry",
                           "JournalEntry.to_document", "JournalEntry.from_document",
                           "EnactmentJournal._write", "EnactmentJournal._documents"],
    "repro.core.provenance": ["merged_lineage", "HistoryTree.size", "HistoryTree.describe"],
    "repro.core.tokens": ["DataToken.payload_fingerprint"],
    "repro.core.trace": ["ExecutionTrace.iter_events", "ExecutionTrace.makespan",
                         "ExecutionTrace.busy_time", "ExecutionTrace.concurrency_profile"],
    "repro.experiments.__main__": ["cmd_profile_record", "_make_testbed"],
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
    "repro.observability.bus": ["InMemoryCollector.for_job", "InMemoryCollector.children_of",
                                "InMemoryCollector.clear", "InMemoryCollector.category"],
    "repro.observability.critical_path": ["ObservedCriticalPath.processors", "_policy_of"],
    "repro.observability.dataflow.report": ["link_activity"],
    "repro.observability.drift": ["DriftReport.within"],
    "repro.observability.health": ["RollingSample.z"],
    "repro.observability.logbridge": ["get_logger", "LoggingSubscriber"],
    "repro.observability.metrics": ["MetricsSnapshot.gauge_peak", "HistogramSnapshot.minimum",
                                    "HistogramSnapshot.maximum", "HistogramSnapshot.mean"],
    "repro.observability.monitor": ["ServiceProgress.pending", "ServiceProgress.fraction"],
    "repro.observability.ops.console": ["CLEAR_SCREEN"],
    "repro.observability.ops.promexport": ["MetricsHTTPServer", "CONTENT_TYPE"],
    "repro.observability.profiling.attribution": ["PROFILE_PREFIX", "profile_counters",
                                                  "components_from_counters",
                                                  "format_attribution",
                                                  "ComponentDelta.describe"],
    "repro.observability.profiling.churn": ["(module) MemoryTracker"],
    "repro.observability.profiling.clock": ["resolve_clock"],
    "repro.observability.profiling.profiler": ["Profiler.reset"],
    "repro.observability.runstore": ["Budgets", "Regression", "_check"],
    "repro.observability.timeline": ["ce_utilization", "ce_queue_depth"],
    "repro.service.__main__": ["_open_store", "_service", "_slos", "_sinks"],
    "repro.service.api": ["SubmitRequest", "TenantStatus", "ServiceStatus", "TelemetryStatus",
                          "telemetry_status", "(module) RunStatus, run_status"],
    "repro.service.logic": ["pick_next"],
    "repro.service.scheduler": ["EnactmentService.telemetry_status",
                                "EnactmentService.active_runs", "TESTBEDS",
                                "EnactmentService.start", "EnactmentService._worker",
                                "EnactmentService.stop"],
    "repro.services.composite": ["CompositeService.stage_port_for_input",
                                 "CompositeService.stage_port_for_output"],
    "repro.services.descriptor": ["ExecutableDescriptor.file_inputs",
                                  "ExecutableDescriptor.parameters"],
    "repro.services.gridrpc": ["(module) GridRpcClient"],
    "repro.services.invocation": ["(module) AsyncInvoker, SyncInvoker, gather"],
    "repro.services.base": ["InvocationRecord.duration"],
    "repro.services.registry": ["ServiceRegistry.unregister", "ServiceRegistry.find_by_ports",
                                "ServiceRegistry.find_by_tag", "ServiceRegistry.names"],
    "repro.services.soap": ["(module) SoapBinding, build_envelope, parse_envelope"],
    "repro.sim.engine": ["Interrupt", "Process.interrupt", "Process.is_alive"],
    "repro.sim.resources": ["Store"],
    "repro.taskbased.dag": ["StaticDag.roots"],
    "repro.util.distributions": ["Exponential", "Empirical", "Shifted"],
    "repro.util.rng": ["RandomStreams.fork", "RandomStreams.names"],
    "repro.util.stats": ["LinearFit.predict", "summarize", "Summary"],
    "repro.util.validation": ["(module) require_positive, require_non_negative, require_in, "
                              "require_type"],
    "repro.workflow.analysis": ["all_paths", "critical_path_length"],
    "repro.workflow.builder": ["WorkflowBuilder.coordinate"],
    "repro.workflow.datasets": ["InputDataSet.add_file", "InputDataSet.restricted_to",
                                "DataItem.is_file"],
    "repro.workflow.graph": ["Workflow.replace_processor"],
    "repro.workflow.render": ["(module) to_dot, summarize"],
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


def class_hierarchy():
    """Every class under src/repro as (module, nested class names) -> the
    keys of its src/ bases and subclasses, each transitively closed.  A base
    is resolved by its simple name, to every src/ class of that name."""
    bases, by_name = {}, defaultdict(set)

    def walk(node, module, classes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                key = (module, classes + (child.name,))
                names = set()
                for base in child.bases:
                    base = base.value if isinstance(base, ast.Subscript) else base
                    if isinstance(base, ast.Name):
                        names.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        names.add(base.attr)
                bases[key] = names
                by_name[child.name].add(key)
                walk(child, module, key[1])
            else:
                walk(child, module, classes)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), module_name(path), ())
    direct = {key: {b for name in names for b in by_name.get(name, ())}
              for key, names in bases.items()}

    def closure(step, key):
        seen, todo = set(), [key]
        while todo:
            for nxt in step(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    children = defaultdict(set)
    for key, parents in direct.items():
        for parent in parents:
            children[parent].add(key)
    up = {key: closure(direct.get, key) for key in direct}
    down = {key: closure(lambda k: children.get(k, ()), key) for key in direct}
    return up, down


def annotation_classes(node, class_names):
    """The src/ classes an annotation names: ``C``, ``"C"``, ``C | None``,
    ``Optional[C]`` or ``Union[C, D]``; None when any part is something else
    (a container, a builtin, a type from outside src/)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Constant) and node.value is None:
        return set()
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return {name} if name in class_names else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        parts = [node.left, node.right]
    elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
          and node.value.id in ("Optional", "Union")):
        parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    else:
        return None
    classes = set()
    for part in parts:
        found = annotation_classes(part, class_names)
        if found is None:
            return None
        classes |= found
    return classes


def receiver_classes(func, inherited, class_names):
    """Local names of *func* whose src/ class is known: a parameter annotated
    with src/ classes, or a name every binding of which is ``x = C(...)``.
    A name *func* binds any other way is untyped, and shadows *inherited*
    (the enclosing function's typed names)."""
    bindings = defaultdict(list)  # name -> one class set per binding, None if unknown
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
        if arg is not None:
            bindings[arg.arg].append(annotation_classes(arg.annotation, class_names)
                                     if arg.annotation is not None else None)
    constructed = {}
    todo = list(func.body)
    nodes = []
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings[node.name].append(None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        nodes.append(node)
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id in class_names):
            constructed[id(node.targets[0])] = {node.value.func.id}
        todo.extend(ast.iter_child_nodes(node))
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bindings[node.id].append(constructed.get(id(node)))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bindings[node.name].append(None)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bindings[(alias.asname or alias.name).split(".")[0]].append(None)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                bindings[name].append(None)
    typed = {name: classes for name, classes in inherited.items() if name not in bindings}
    for name, found in bindings.items():
        if found and all(found):
            typed[name] = frozenset().union(*found)
    return typed


#: builtin containers and scalars: a value built by one, or an annotation
#: naming one, holds no src/ object
PLAIN = {"dict", "list", "set", "frozenset", "tuple", "str", "int", "float", "bool",
         "bytes", "bytearray", "defaultdict", "deque", "OrderedDict", "Counter",
         "Dict", "List", "Set", "FrozenSet", "Tuple", "DefaultDict", "Deque"}
LITERALS = (ast.Constant, ast.JoinedStr, ast.Dict, ast.List, ast.Set, ast.Tuple,
            ast.DictComp, ast.ListComp, ast.SetComp)


def simple_name(node):
    return node.id if isinstance(node, ast.Name) else (
        node.attr if isinstance(node, ast.Attribute) else None)


def on_self(node):
    """True for ``self.<attr>`` / ``cls.<attr>``."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls"))


def value_classes(node, class_names, typed):
    """The src/ classes an assigned value can be: none for a literal or a builtin
    container/scalar call, ``{C}`` for ``C(...)``, a typed local's classes;
    None when the value says nothing."""
    if isinstance(node, LITERALS):
        return set()
    if isinstance(node, ast.Name) and node.id in typed:
        return set(typed[node.id])
    if isinstance(node, ast.Call):
        name = simple_name(node.func)
        if name in class_names:
            return {name}
        if name in PLAIN:
            return set()
    return None


def declared_classes(annotation, class_names):
    """:func:`annotation_classes`, plus none for a builtin container or scalar."""
    found = annotation_classes(annotation, class_names)
    if found is not None:
        return found
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return set() if simple_name(annotation) in PLAIN else None


def attribute_bindings(module, tree, class_names):
    """Per class key, attr -> one class set per binding of ``self.<attr>`` /
    ``cls.<attr>`` in its methods or ``<attr>`` in its body (None where the
    binding says nothing: tuple targets, loops, augmented assignment, a
    method of that name); and the attr names code stores on any other
    receiver, which no class can type."""
    bindings = defaultdict(lambda: defaultdict(list))
    foreign = set()

    def method(func, key):
        typed = receiver_classes(func, {}, class_names)
        handled = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in filter(on_self, node.targets):
                    bindings[key][target.attr].append(
                        value_classes(node.value, class_names, typed))
                    handled.add(id(target))
            elif isinstance(node, ast.AnnAssign) and on_self(node.target):
                bindings[key][node.target.attr].append(
                    declared_classes(node.annotation, class_names))
                handled.add(id(node.target))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and id(node) not in handled):
                if on_self(node):
                    bindings[key][node.attr].append(None)
                else:
                    foreign.add(node.attr)

    def walk(node, classes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                key = (module, classes + (child.name,))
                for item in child.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        bindings[key][item.name].append(None)
                        method(item, key)
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if isinstance(target, ast.Name):
                                bindings[key][target.id].append(
                                    value_classes(item.value, class_names, {}))
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        bindings[key][item.target.id].append(
                            declared_classes(item.annotation, class_names))
                walk(child, key[1])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, classes)
            else:
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store) \
                        and not classes:
                    foreign.add(child.attr)
                walk(child, classes)

    walk(tree, ())
    return bindings, foreign


def attribute_classes(bindings, foreign, related, attr):
    """The src/ classes ``self.<attr>`` can hold in a class whose hierarchy
    (itself, its bases and subclasses) is *related*: the union over every
    binding there; None when one says nothing, there is none, or code
    stores *attr* on another receiver."""
    found = [b for key in related for b in bindings.get(key, {}).get(attr, ())]
    if attr in foreign or not found or any(b is None for b in found):
        return None
    return frozenset().union(*found)


def source_trees():
    return [(module_name(path), ast.parse(path.read_text()))
            for path in sorted(PACKAGE.rglob("*.py"))]


def references(up, down, trees=None):
    """Where src/ loads each name, outside imports and ``__all__``.

    ("name", n) and ("attr", n) map to the "module:owner" sites of a bare
    ``n`` and of ``x.n`` on an untyped receiver.  ("self", n) maps to
    (site, class key) pairs for ``self.n`` / ``cls.n`` inside a class;
    ("class", n) maps to (site, class name) pairs for ``C.n`` where ``C``
    names a src/ class; ("typed", n) maps to (site, class names) pairs for
    ``x.n`` where :func:`receiver_classes` types ``x``, and for
    ``self.a.n`` where :func:`attribute_classes` types ``self.a``.
    ("import", n) maps to the modules that import *n* or import from it.
    *up* and *down* are :func:`class_hierarchy`; *trees* are (module, AST)
    pairs, by default every module under src/repro."""
    trees = source_trees() if trees is None else trees
    # a Protocol names a structural type: its implementations need not
    # inherit from it, so it types no receiver
    structural = {node.name for _, tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and any(
                      simple_name(b.value if isinstance(b, ast.Subscript) else b) == "Protocol"
                      for b in node.bases)}
    class_names = {classes[-1] for _, classes in up} - structural
    bindings, foreign = {}, set()
    for module, tree in trees:
        found, stored = attribute_bindings(module, tree, class_names)
        bindings.update(found)
        foreign |= stored
    sites = defaultdict(set)

    def walk(node, where, separator, owner, typed):
        module = where.split(":")[0]
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    sites[("import", alias.name)].add(module)
                sites[("import", child.module)].add(module)
                continue
            if isinstance(child, ast.Import):
                continue
            if isinstance(child, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in child.targets
            ):
                continue
            if isinstance(child, ast.ClassDef):
                classes = owner[1] if owner else ()
                walk(child, f"{where}{separator}{child.name}", ".",
                     (module, classes + (child.name,)), typed)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{where}{separator}{child.name}", ".", owner,
                     receiver_classes(child, typed, class_names))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                sites[("name", child.id)].add(where)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                receiver = child.value.id if isinstance(child.value, ast.Name) else None
                held = None
                if owner is not None and on_self(child.value):
                    related = {owner} | up.get(owner, set()) | down.get(owner, set())
                    held = attribute_classes(bindings, foreign, related, child.value.attr)
                if receiver in ("self", "cls") and owner is not None:
                    sites[("self", child.attr)].add((where, owner))
                elif held is not None:
                    sites[("typed", child.attr)].add((where, held))
                elif receiver in typed:
                    sites[("typed", child.attr)].add((where, typed[receiver]))
                elif receiver in class_names:
                    sites[("class", child.attr)].add((where, receiver))
                else:
                    sites[("attr", child.attr)].add(where)
            walk(child, where, separator, owner, typed)

    for module, tree in trees:
        walk(tree, module, ":", None, {})
    return sites


def wired_by(entry: Def, sites, live_classes, up, down) -> str | None:
    """The first src/ site that references this def, else None.  Its classes
    must be live too: some def of theirs reached, or named outside them.

    A method of class K is referenced by ``self.m`` / ``cls.m`` inside K, a
    base of K or a subclass of K; by ``C.m`` where C is K or a subclass of
    K; by ``x.m`` where ``x`` is typed as K, a base of K or a subclass of K;
    and by ``x.m`` on any other receiver."""
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
    if entry.classes:
        key = (entry.module, entry.classes)
        below = down.get(key, set()) | {key}
        related = below | up.get(key, set())
        named |= {site for site, owner in sites.get(("self", name), ()) if owner in related}
        related_names = {classes[-1] for _, classes in related}
        named |= {site for site, types in sites.get(("typed", name), ())
                  if types & related_names}
        below_names = {classes[-1] for _, classes in below}
        named |= {site for site, cls in sites.get(("class", name), ()) if cls in below_names}
    else:
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
    """(job, step name, script) for every ci.yml run: block outside the lint,
    tier-1 and reachability jobs."""
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
            if job not in ("lint", "tests", "reachability") and "pip install" not in script:
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
    up, down = class_hierarchy()
    sites = references(up, down)
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
                      else wired_by(entry, sites, live_classes, up, down))
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
        "first such site is shown after `←`; `self.m`, `cls.m`, `C.m`, `x.m`",
        "on an annotated or constructed `x` and `self.a.m` on a typed attribute",
        "count only for the class hierarchy they resolve to); every other unreached",
        "def carries a verdict from the recorder's `KEPT` table, or is deleted.",
        "Defs nested in an unreached def are counted, not listed.",
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
