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
from repro.grid.storage import ReplicaCatalog
from repro.grid.testbeds import chaotic_testbed
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams


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
