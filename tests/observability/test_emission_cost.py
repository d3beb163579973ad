"""Emission-cost contract: what one span costs the host, in function calls.

The observed shape of the trajectory benchmark — SP+DP+JG on the
calibrated grid, a bus carrying an in-memory collector, a
``RunMonitor`` and a ``DataFlowCollector`` — is enacted twice from the
same seed, once subscribed and once without a bus.  A ``sys.setprofile``
hook counts every Python call and C call of each run; the difference,
divided by the spans the subscribed run emitted, is what a span costs:
its construction, the metric handles it touches, and every subscriber's
fold.  Call counts are a pure function of the seeded control flow, so
the figure is exact on any machine (the cyclic collector is paused so
no finalizer runs inside the count).
"""

import gc
import sys

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.experiments.calibration import make_experiment_grid
from repro.observability import InMemoryCollector, InstrumentationBus, RunMonitor
from repro.observability.dataflow import DataFlowCollector
from repro.observability.drift import policy_key
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

#: calls per span at 128 pairs, measured at 40.5 on Python 3.11 and
#: rounded up by 4% (DESIGN.md, "What a span costs")
CALLS_PER_SPAN_CEILING = 42.0

#: the per-span cost must not grow with the run: 128 pairs may cost at
#: most this factor times what 32 pairs cost
GROWTH_CEILING = 1.1


def _enact(pairs: int, observed: bool):
    """(calls, spans) of one seed-42 SP+DP+JG enactment at *pairs*."""
    engine = Engine()
    streams = RandomStreams(seed=42)
    grid = make_experiment_grid(engine, streams)
    app = BronzeStandardApplication(engine, grid, streams)
    dataset = app.build_dataset(pairs)
    config = OptimizationConfig.sp_dp_jg().with_best_effort()
    bus = collector = None
    if observed:
        bus = InstrumentationBus()
        collector = bus.subscribe(InMemoryCollector())
        bus.subscribe(RunMonitor(bus=bus, expected_items=pairs, policy=policy_key(config)))
        bus.subscribe(DataFlowCollector().attach(grid))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        app.enact(config, dataset=dataset, instrumentation=bus)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, len(collector) if collector is not None else 0


def calls_per_span(pairs: int) -> float:
    """Subscribed minus unsubscribed calls, per span emitted."""
    plain, _ = _enact(pairs, observed=False)
    observed, spans = _enact(pairs, observed=True)
    assert spans > 0
    return (observed - plain) / spans


@pytest.fixture(scope="module")
def cost():
    return {pairs: calls_per_span(pairs) for pairs in (32, 128)}


class TestEmissionCost:
    def test_a_span_costs_at_most_the_ceiling(self, cost):
        assert cost[128] <= CALLS_PER_SPAN_CEILING, cost
        assert cost[32] <= CALLS_PER_SPAN_CEILING, cost

    def test_the_cost_of_a_span_does_not_grow_with_the_run(self, cost):
        assert cost[128] <= GROWTH_CEILING * cost[32], cost
