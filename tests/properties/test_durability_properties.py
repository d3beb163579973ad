"""S4: the partition property extends to data loss under outages.

For any random set of destroyed input replicas and any random *finite*
outage schedule, under every optimization policy (NOP/DP/SP/SP+DP) a
grid-backed best-effort enactment:

* never raises,
* loses exactly the items whose replicas were destroyed — outages only
  *delay* stage-in (every window ends), they never kill a lineage,
* partitions the inputs exactly into survived and lost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MoteurEnactor, OptimizationConfig
from repro.grid.faults import FaultModel, OutageSchedule
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import LogicalFile, StorageElement
from repro.grid.transfer import LinkParameters, NetworkModel
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
)
from repro.services.wrapper import GenericWrapperService
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE
from repro.workflow.datasets import DataItem, InputDataSet
from repro.workflow.patterns import chain_workflow

POLICIES = [
    OptimizationConfig.nop(),
    OptimizationConfig.dp(),
    OptimizationConfig.sp(),
    OptimizationConfig.sp_dp(),
]

SUBJECTS = ("se0", "se1", "s1")

# windows are finite (end <= 2000), so outages always heal
windows = st.tuples(
    st.floats(0.0, 1500.0), st.floats(1.0, 500.0)
).map(lambda w: (w[0], w[0] + w[1]))

# (number of inputs, doomed item indices, outage windows per subject)
scenarios = st.integers(1, 4).flatmap(
    lambda n_items: st.tuples(
        st.just(n_items),
        st.sets(st.integers(0, n_items - 1), max_size=n_items),
        st.fixed_dictionaries(
            {}, optional={s: st.lists(windows, max_size=2) for s in SUBJECTS}
        ),
    )
)


def stage_descriptor(name):
    return ExecutableDescriptor(
        name=name,
        access=AccessMethod("URL", f"http://host/{name}"),
        value=name,
        inputs=(InputSpec("x", "-i", AccessMethod("GFN")),),
        outputs=(OutputSpec("y", "-o"),),
    )


def build_grid(engine, streams, schedule):
    sites = [
        Site(
            name=f"s{i}",
            computing_elements=[
                ComputingElement(
                    engine, f"ce{i}", f"s{i}", workers=[WorkerNode(f"w{i}", slots=4)]
                )
            ],
            storage_element=StorageElement(f"se{i}", site=f"s{i}"),
        )
        for i in range(2)
    ]
    return Grid(
        engine,
        streams,
        sites=sites,
        overhead=OverheadModel.zero(),
        network=NetworkModel(
            lan=LinkParameters(latency=0.5, bandwidth=10 * MEBIBYTE),
            wan=LinkParameters(latency=2.0, bandwidth=10 * MEBIBYTE),
        ),
        faults=FaultModel.none(),
        outages=schedule,
    )


def enact_with_data_loss(n_items, doomed, window_map, config):
    engine = Engine()
    streams = RandomStreams(seed=11)
    schedule = (
        OutageSchedule.from_windows(window_map)
        if any(window_map.values())
        else OutageSchedule.none()
    )
    grid = build_grid(engine, streams, schedule)

    dataset = InputDataSet()
    for i in range(n_items):
        gfn = f"gfn://item-{i}"
        file = LogicalFile(gfn, size=1 * MEBIBYTE)
        grid.add_input_file(file, site_name=f"s{i % 2}")
        dataset.add("input", DataItem(value=i, gfn=gfn, size=1 * MEBIBYTE))
    for i in doomed:
        for se in grid.catalog.replicas(f"gfn://item-{i}"):
            grid.catalog.mark_lost(f"gfn://item-{i}", se)

    def factory(name, inputs, outputs):
        return GenericWrapperService(
            engine,
            grid,
            stage_descriptor(name),
            program=lambda x: {"y": x},
            compute_time=1.0,
        )

    workflow = chain_workflow(factory, 1)
    enactor = MoteurEnactor(
        engine, workflow, config.with_best_effort(), grid=grid
    )
    return enactor.run(dataset)


@settings(max_examples=12, deadline=None)
@given(scenarios)
def test_only_destroyed_replicas_lose_items_under_any_outage(scenario):
    n_items, doomed, window_map = scenario
    window_map = {k: v for k, v in window_map.items() if v}
    for config in POLICIES:
        result = enact_with_data_loss(n_items, doomed, window_map, config)

        survived = set(result.output_values("result"))
        lost = set(result.failures.poisoned_lineage().get("input", frozenset()))

        label = (config.label, n_items, sorted(doomed), sorted(window_map))
        assert survived & lost == set(), label
        assert survived | lost == set(range(n_items)), label
        # outages only delay; destroyed replicas are the only data loss
        assert lost == set(doomed), label
        assert len(result.failures.dead_letters) == len(doomed), label


@settings(max_examples=6, deadline=None)
@given(
    st.integers(1, 3),
    st.fixed_dictionaries(
        {}, optional={s: st.lists(windows, min_size=1, max_size=2) for s in SUBJECTS}
    ),
)
def test_pure_outages_never_lose_anything(n_items, window_map):
    window_map = {k: v for k, v in window_map.items() if v}
    for config in POLICIES:
        result = enact_with_data_loss(n_items, frozenset(), window_map, config)
        assert result.failures.empty, (config.label, sorted(window_map))
        assert set(result.output_values("result")) == set(range(n_items))
