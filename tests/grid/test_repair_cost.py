"""What the chaotic per-file path costs per job, pinned by counts, not clocks.

A repair cycle visits only the GFNs the catalog's under-replicated index
holds, so outage queries and health lookups per job stay flat as a
chaotic run grows.  A cycle that re-ranked the whole catalog first made
89 / 52 ``storage_down`` and 45 / 28 ``healthy_replicas`` calls per job
at 50 / 200 pairs, climbing again past that; the indexed cycle makes
about 13-15 and 7-10.
"""

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import LogicalFile, ReplicaCatalog, StorageElement
from repro.grid.testbeds import chaotic_testbed
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE


def counted(monkeypatch, owner, name, calls, on_call=None):
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        calls[name] += 1
        result = original(self, *args, **kwargs)
        if on_call is not None:
            on_call(self, *args)
        return result

    monkeypatch.setattr(owner, name, wrapper)


def observe_cycles(grid, cycles, active):
    """Wrap the daemon's cycle: record, per cycle, the brute-force set of
    under-replicated GFNs at its start; *active* is true while it runs."""
    original = grid._repair_cycle
    catalog = grid.catalog

    def cycle():
        under = sorted(
            gfn
            for gfn in catalog.gfns()
            if sum(se.healthy(gfn) for se in catalog.replicas(gfn)) < grid.repair_target
        )
        cycles.append((under, []))
        inner = original()
        value = None
        while True:
            active[0] = True
            try:
                event = inner.send(value)
            except StopIteration:
                return
            finally:
                active[0] = False
            value = yield event

    grid._repair_cycle = cycle


@pytest.mark.parametrize("pairs", [50, 200])
def test_chaotic_cost_per_job_is_flat(monkeypatch, pairs):
    calls = {"storage_down": 0, "healthy_replicas": 0}
    cycles = []
    active = [False]

    def visit(catalog, gfn):
        if active[0]:
            cycles[-1][1].append(gfn)

    counted(monkeypatch, Grid, "storage_down", calls)
    counted(monkeypatch, ReplicaCatalog, "healthy_replicas", calls, on_call=visit)
    engine = Engine()
    streams = RandomStreams(seed=42)
    grid = chaotic_testbed(
        engine, streams, replica_loss_probability=0, corruption_probability=0
    )
    observe_cycles(grid, cycles, active)
    BronzeStandardApplication(engine, grid, streams).enact(
        OptimizationConfig.sp_dp(), n_pairs=pairs
    )
    jobs = len(grid.records)
    assert jobs == 6 * pairs
    assert calls["storage_down"] / jobs <= 20
    assert calls["healthy_replicas"] / jobs <= 15
    # With loss and corruption off no known GFN loses a replica, so a
    # cycle visits exactly the GFNs under-replicated when it began.
    assert len(cycles) > 10
    for under, visits in cycles:
        assert visits == under


def test_a_gfn_with_no_replica_left_is_not_visited(monkeypatch):
    """Nothing can copy a GFN whose every replica is gone, so no cycle
    asks for its health until a registration gives it a source again."""
    engine = Engine()
    ses = [StorageElement(f"se{i}", site=f"s{i}") for i in range(3)]
    sites = [
        Site(f"s{i}", [ComputingElement(engine, f"ce{i}", f"s{i}", [WorkerNode(f"w{i}")])], se)
        for i, se in enumerate(ses)
    ]
    grid = Grid(
        engine, RandomStreams(seed=5), sites=sites, overhead=OverheadModel.zero(),
        repair_target=2, repair_interval=10.0,
    )
    catalog = grid.catalog
    dead = LogicalFile("gfn://dead", size=MEBIBYTE)
    alive = LogicalFile("gfn://alive", size=MEBIBYTE)
    catalog.register(dead, ses[0])
    catalog.mark_lost(dead.gfn, ses[0])
    visits = []
    original = ReplicaCatalog.healthy_replicas

    def spy(self, gfn):
        visits.append((engine.now, gfn))
        return original(self, gfn)

    monkeypatch.setattr(ReplicaCatalog, "healthy_replicas", spy)

    def late_registrations():
        catalog.register(alive, ses[0])
        yield engine.timeout(200.0)
        catalog.register(dead, ses[1])  # a source again: it rejoins

    engine.process(late_registrations(), name="registrations")
    engine.run(until=400.0)
    assert [t for t, gfn in visits if gfn == alive.gfn]  # cycles did run
    assert all(t >= 200.0 for t, gfn in visits if gfn == dead.gfn)
    assert catalog.healthy_replica_count(dead.gfn) == 2
