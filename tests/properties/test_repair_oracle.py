"""Differential oracle: the indexed repair cycle against the full scan.

The re-replication daemon visits only the GFNs in the catalog's
under-replicated index; the reference (``tests/tools/repair_reference.py``)
is the cycle it replaced, which re-ranks every catalogued GFN.  On random
small grids — 3 to 5 SEs plus one storage-less site, ``repair_target``
2 or 3, random outage windows, files registered before and during the
run, and replica loss / quarantine injected between and during cycles —
both daemons must make the same sequence of (time, gfn, src, dst) repair
transfers and leave the same replica map, and the index must equal a
brute-force recount after every injection and at the end.

Hand mutants of ``src/repro/grid`` run against this file, all killed:

* ``healthy >= self._target`` -> ``>`` in the catalog's need check;
* ``ReplicaCatalog.quarantine`` without its index update;
* the cycle's heap seeded in the set's iteration order, not sorted;
* the cycle reading a snapshot of the index taken at cycle start
  instead of its live membership;
* GFNs first registered mid-cycle pushed onto the heap like any join.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.faults import OutageSchedule
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import LogicalFile, StorageElement
from repro.grid.transfer import LinkParameters, NetworkModel
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE
from tests.tools.repair_reference import use_reference_repair

HORIZON = 400.0

windows = st.tuples(st.integers(0, 300), st.integers(5, 120)).map(
    lambda w: (float(w[0]), float(w[0] + w[1]))
)

scenarios = st.integers(3, 5).flatmap(
    lambda n_ses: st.fixed_dictionaries(
        {
            "n_ses": st.just(n_ses),
            "bare_at": st.integers(0, n_ses),
            "target": st.integers(2, 3),
            "interval": st.sampled_from([15.0, 40.0, 90.0]),
            # file index -> SE indices holding it at time 0
            "initial": st.lists(
                st.sets(st.integers(0, n_ses - 1), min_size=1, max_size=2),
                min_size=1,
                max_size=6,
            ),
            # (time, SE index) of files first registered mid-run
            "births": st.lists(
                st.tuples(st.integers(1, 300), st.integers(0, n_ses - 1)),
                max_size=3,
            ),
            # (time, kind, file index, SE index)
            "hits": st.lists(
                st.tuples(
                    st.integers(0, 350),
                    st.sampled_from(["lost", "quarantine"]),
                    st.integers(0, 8),
                    st.integers(0, n_ses - 1),
                ),
                max_size=10,
            ),
            "outages": st.dictionaries(
                st.integers(0, n_ses - 1), st.lists(windows, max_size=2), max_size=3
            ),
        }
    )
)


def build(scenario, reference):
    engine = Engine()
    ses = [StorageElement(f"se{i}", site=f"s{i}") for i in range(scenario["n_ses"])]
    sites = [
        Site(
            f"s{i}",
            [ComputingElement(engine, f"ce{i}", f"s{i}", workers=[WorkerNode(f"w{i}")])],
            se,
        )
        for i, se in enumerate(ses)
    ]
    bare = ComputingElement(engine, "ce-bare", "bare", workers=[WorkerNode("w-bare")])
    sites.insert(scenario["bare_at"], Site("bare", [bare], storage_element=None))
    windows_by_se = {f"se{i}": w for i, w in scenario["outages"].items() if w}
    grid = Grid(
        engine,
        RandomStreams(seed=5),
        sites=sites,
        overhead=OverheadModel.zero(),
        network=NetworkModel(
            lan=LinkParameters(latency=1.0, bandwidth=1 * MEBIBYTE),
            wan=LinkParameters(latency=4.0, bandwidth=1 * MEBIBYTE),
        ),
        outages=(
            OutageSchedule.from_windows(windows_by_se)
            if windows_by_se
            else OutageSchedule.none()
        ),
        repair_target=scenario["target"],
        repair_interval=scenario["interval"],
    )
    if reference:
        use_reference_repair(grid)
    return engine, grid, ses


def brute_force_under(grid, target):
    """GFNs that need a copy and still have a healthy replica to copy from."""
    catalog = grid.catalog
    return {
        gfn
        for gfn in catalog.gfns()
        if 0 < sum(se.healthy(gfn) for se in catalog.replicas(gfn)) < target
    }


def run(scenario, reference):
    engine, grid, ses = build(scenario, reference)
    catalog = grid.catalog
    files = [
        LogicalFile(f"gfn://f/{i:02d}", size=(i % 4 + 1) * MEBIBYTE)
        for i in range(len(scenario["initial"]) + len(scenario["births"]))
    ]
    for file, holders in zip(files, scenario["initial"]):
        for i in sorted(holders):
            catalog.register(file, ses[i])

    transfers = []

    def observe(src, dst, size, seconds):
        context = grid.transfer_context
        if context is not None and context.purpose == "repair":
            transfers.append((engine.now, context.gfn, src, dst))

    grid.network.add_observer(observe)

    born = files[len(scenario["initial"]):]
    actions = [(t, 0, "birth", file, se) for file, (t, se) in zip(born, scenario["births"])]
    actions += [(t, 1, kind, files[f % len(files)], se) for t, kind, f, se in scenario["hits"]]

    def injector():
        for when, _, kind, file, i in sorted(actions, key=lambda a: a[:2]):
            if when > engine.now:
                yield engine.timeout(when - engine.now)
            if kind == "birth":
                catalog.register(file, ses[i])
            elif catalog.knows(file.gfn):
                getattr(catalog, "mark_lost" if kind == "lost" else "quarantine")(file.gfn, ses[i])
            if not reference:
                assert catalog.under_replicated == brute_force_under(grid, scenario["target"])

    engine.process(injector(), name="injector")
    engine.run(until=HORIZON)
    if not reference:
        assert catalog.under_replicated == brute_force_under(grid, scenario["target"])
    replica_map = {
        gfn: [(se.name, se.healthy(gfn)) for se in catalog.replicas(gfn)]
        for gfn in catalog.gfns()
    }
    return transfers, replica_map


@settings(max_examples=80, deadline=None)
@given(scenarios)
def test_indexed_repair_matches_full_scan(scenario):
    expected_transfers, expected_map = run(scenario, reference=True)
    transfers, replica_map = run(scenario, reference=False)
    assert transfers == expected_transfers
    assert replica_map == expected_map
