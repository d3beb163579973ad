"""The profiler's seams: the hook is live only inside a profiled enactment.

Nothing under ``repro`` carries a profiler; the hook is installed by
``BronzeStandardApplication.enact(profiler=...)`` (and the service's
``tick()``) and removed again on the way out, restoring whatever
``sys.getprofile()`` hook was there before.
"""

import sys

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core.config import OptimizationConfig
from repro.core.enactor import MoteurEnactor
from repro.experiments.calibration import make_experiment_grid
from repro.observability import InstrumentationBus
from repro.observability.profiling import Profiler, TickClock
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams


def bronze_app(seed=42):
    engine = Engine()
    streams = RandomStreams(seed=seed)
    grid = make_experiment_grid(engine, streams)
    return BronzeStandardApplication(engine, grid, streams)


class OuterHook:
    """A stand-in for a debugger or coverage hook already installed."""

    def __init__(self):
        self.events = 0

    def __call__(self, frame, event, arg):
        self.events += 1


def under_outer_hook(run):
    """Run *run()* with an :class:`OuterHook` installed; returns the hook."""
    outer = OuterHook()
    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        run()
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(previous)
    return outer


class TestEnactSeam:
    def test_profiler_does_not_outlive_its_enactment(self):
        app = bronze_app()
        config = OptimizationConfig.sp_dp()
        profiler = Profiler(clock=TickClock())

        def run():
            app.enact(config, n_pairs=2, profiler=profiler)
            before = profiler.snapshot().to_json()
            app.enact(config, n_pairs=2)
            assert profiler.snapshot().to_json() == before

        outer = under_outer_hook(run)
        assert outer.events > 0  # the unprofiled enactment ran under it

    def test_unprofiled_enactment_leaves_the_hook_unchanged(self):
        app = bronze_app()
        under_outer_hook(
            lambda: app.enact(OptimizationConfig.sp_dp(), n_pairs=2)
        )

    def test_no_instrumented_object_carries_a_profiler(self):
        app = bronze_app()
        bus = InstrumentationBus()
        app.enact(
            OptimizationConfig.sp_dp(),
            n_pairs=2,
            instrumentation=bus,
            profiler=Profiler(clock=TickClock()),
        )
        enactor = MoteurEnactor(app.engine, app.workflow, grid=app.grid)
        for target in (app.engine, app.grid, app.grid.broker, enactor, bus):
            assert not hasattr(target, "profiler"), type(target).__name__
