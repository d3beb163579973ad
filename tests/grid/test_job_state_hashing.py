"""Cost contract: a job's lifecycle hashes no ``JobState``.

``JobState`` is a plain ``Enum``, whose ``__hash__`` is Python code, so
a timeline keyed by state pays a Python call on every entry and every
lookup.  A job in flight keeps its timeline as ordered ``state, time``
entries compared by identity instead, and a finished job's row keeps
state codes.  The observed shape of the trajectory benchmark — seed-42
SP+DP+JG on the calibrated grid with a bus carrying a collector, a
``RunMonitor`` and a ``DataFlowCollector`` — is enacted under a
``sys.setprofile`` hook that counts calls of ``Enum.__hash__``; the
count is a pure function of the seeded control flow.  Keyed by state,
the timeline cost 18.1 calls per job here (9 272 over 512 jobs).
"""

import enum
import sys

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.experiments.calibration import make_experiment_grid
from repro.observability import InMemoryCollector, InstrumentationBus, RunMonitor
from repro.observability.dataflow import DataFlowCollector
from repro.observability.drift import policy_key
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams


def test_no_enum_hash_per_job_in_an_observed_run():
    engine = Engine()
    streams = RandomStreams(seed=42)
    grid = make_experiment_grid(engine, streams)
    app = BronzeStandardApplication(engine, grid, streams)
    dataset = app.build_dataset(128)
    config = OptimizationConfig.sp_dp_jg().with_best_effort()
    bus = InstrumentationBus()
    bus.subscribe(InMemoryCollector())
    bus.subscribe(RunMonitor(bus=bus, expected_items=128, policy=policy_key(config)))
    bus.subscribe(DataFlowCollector().attach(grid))
    enum_hash = enum.Enum.__hash__.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is enum_hash:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        app.enact(config, dataset=dataset, instrumentation=bus)
    finally:
        sys.setprofile(previous)
    jobs = len(grid.records)
    assert jobs == 4 * 128
    assert calls / jobs == 0, calls
