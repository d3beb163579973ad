"""Which public callables the traced pass shims, and the layer drivers.

Layer names are the repository's module names.  The table is the whole
list of callables the benchmark reaches into; collaborators the program
accepts by injection (subscribers, stores) are proxied in ``workloads.py``
instead and do not appear here.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import repro.core.enactor as enactor_module
from repro.cache import ResultCache
from repro.core.enactor import MoteurEnactor
from repro.core.iteration import IterationEngine
from repro.core.journal import EnactmentJournal
from repro.core.provenance import HistoryTree
from repro.core.tokens import DataToken
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement
from repro.grid.storage import ReplicaCatalog
from repro.grid.transfer import NetworkModel
from repro.service import EnactmentService
from repro.services.base import GridData
from repro.services.wrapper import GenericWrapperService
from repro.sim.engine import Engine

from tracing import Tracer

#: (owner, attribute, metric prefix)
SHIMMED = (
    (Engine, "step", "sim.engine.step"),
    (Engine, "schedule", "sim.engine.schedule"),
    (IterationEngine, "offer", "core.iteration.offer"),
    (MoteurEnactor, "run", "core.enactor.run"),
    # one fsync'd line per invocation; only the service hands enactors a journal
    (EnactmentJournal, "append_invocation", "core.journal.append_invocation"),
    (GenericWrapperService, "prepare_job", "services.wrapper.prepare_job"),
    (GenericWrapperService, "decode_outputs", "services.wrapper.decode_outputs"),
    (Grid, "submit", "grid.middleware.submit"),
    (Grid, "stage_in_time", "grid.middleware.stage_in_time"),
    (Grid, "stage_out_time", "grid.middleware.stage_out_time"),
    (Grid, "entity_down", "grid.middleware.entity_down"),
    (Grid, "storage_down", "grid.middleware.storage_down"),
    (ComputingElement, "submit", "grid.resources.ComputingElement.submit"),
    (OverheadModel, "sample", "grid.overhead.sample"),
    (NetworkModel, "transfer_time", "grid.transfer.transfer_time"),
    (NetworkModel, "raw_transfer_time", "grid.transfer.raw_transfer_time"),
    (ReplicaCatalog, "closest_replica", "grid.storage.closest_replica"),
    (ReplicaCatalog, "failover_order", "grid.storage.failover_order"),
    (ReplicaCatalog, "healthy_replicas", "grid.storage.healthy_replicas"),
    (ReplicaCatalog, "register", "grid.storage.register"),
    (EnactmentService, "submit", "service.scheduler.submit"),
    (EnactmentService, "tick", "service.scheduler.tick"),
    # the enactor hashes keys through the module-level function that
    # ResultCache.key_for delegates to, so that is where the shim goes
    (enactor_module, "invocation_key", "cache.key_for"),
    (ResultCache, "lookup", "cache.lookup"),
    (ResultCache, "put", "cache.put"),
)

#: callables reached only through proxies; listed so every traced run
#: reports the same names (zero calls where a workload has no such layer)
PROXIED = tuple(
    f"observability.{subscriber}.{method}"
    for subscriber in ("collector", "monitor", "dataflow", "telemetry")
    for method in ("on_start", "on_end")
) + tuple(
    f"service.store.{method}" for method in ("put_run", "append_audit", "save_usage", "runs")
) + ("cache.store.get", "cache.store.put")

TICK = "service.scheduler.tick"


def install(tracer: Tracer) -> List[IterationEngine]:
    """Shim every SHIMMED callable; returns the list iteration engines join.

    ``IterationEngine.offered`` / ``fired`` are public counters, but the
    enactor keeps its engines private; wrapping the public constructor is
    how the traced pass finds them.
    """
    for owner, attr, name in SHIMMED:
        tracer.patch(owner, attr, name, keep_samples=(name == TICK))
    for name in PROXIED:
        tracer.register(name)
    engines: List[IterationEngine] = []
    original = IterationEngine.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self)

    tracer.replace(IterationEngine, "__init__", recording_init)
    return engines


# -- layer drivers: synthetic inputs through public constructors, no Bronze --
def _token(index: int, port: str) -> DataToken:
    """A token three derivations deep, so lineages look like Bronze's."""
    history = HistoryTree.leaf("source", index)
    for producer in ("first", port):
        history = HistoryTree.derive(producer, (history,))
    return DataToken(data=GridData(value=index), history=history)


def dot_us_per_offer(n: int, rng: random.Random) -> float:
    """Dot product on 3 ports, *n* lineages, shuffled arrival."""
    ports = ("a", "b", "c")
    arrivals = [(port, _token(index, port)) for port in ports for index in range(n)]
    rng.shuffle(arrivals)
    engine = IterationEngine(ports, "dot")
    start = time.perf_counter()
    for port, token in arrivals:
        engine.offer(port, token)
    elapsed = time.perf_counter() - start
    if engine.fired != n:
        raise AssertionError(f"dot driver fired {engine.fired} bindings, expected {n}")
    return 1e6 * elapsed / len(arrivals)


def cross_us_per_binding(n: int, rng: random.Random) -> float:
    """Cross product *n* x *n*: the same layer used differently, so a dot
    index that taxes cross shows here."""
    ports = ("a", "b")
    arrivals = [
        (port, DataToken(data=GridData(value=index), history=HistoryTree.leaf(port, index)))
        for port in ports
        for index in range(n)
    ]
    rng.shuffle(arrivals)
    engine = IterationEngine(ports, "cross")
    start = time.perf_counter()
    for port, token in arrivals:
        engine.offer(port, token)
    elapsed = time.perf_counter() - start
    if engine.fired != n * n:
        raise AssertionError(f"cross driver fired {engine.fired} bindings, expected {n * n}")
    return 1e6 * elapsed / engine.fired


def timeout_ns_per_event(count: int) -> float:
    """*count* timeouts yielded by one process: heap + generator resumption."""
    engine = Engine()

    def ticker():
        for _ in range(count):
            yield engine.timeout(1.0)

    engine.process(ticker())
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return 1e9 * elapsed / engine.events_processed


def run_drivers(seed: int, smoke: bool) -> Dict[str, float]:
    """The layer-driver metrics (names are fixed; smoke shrinks the sizes)."""
    rng = random.Random(seed)
    scale = 10 if smoke else 1
    return {
        "core.iteration.dot_us_per_offer_n126": dot_us_per_offer(126 // scale, rng),
        "core.iteration.dot_us_per_offer_n1000": dot_us_per_offer(1000 // scale, rng),
        "core.iteration.cross_us_per_binding": cross_us_per_binding(30, rng),
        "sim.engine.timeout_ns_per_event": timeout_ns_per_event(200_000 // scale),
    }
