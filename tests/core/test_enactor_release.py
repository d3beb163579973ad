"""A finished enactment lets go of the tokens it matched and gathered.

``Engine.run(until=completion)`` returns with the completion and its
same-time siblings still queued, and their waiters keep the enactor
alive for as long as the engine lives.  What the enactor kept for
matching and for its barriers must be gone by then, payloads included.
"""

import gc
import weakref

from repro import Engine, OptimizationConfig
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.apps.registration import RegistrationResult
from repro.experiments.calibration import make_experiment_grid
from repro.util.rng import RandomStreams


def test_barrier_inputs_are_released_once_the_result_is_built():
    engine = Engine()
    streams = RandomStreams(seed=42)
    grid = make_experiment_grid(engine, streams)
    app = BronzeStandardApplication(engine, grid, streams)
    barrier = app.services["MultiTransfoTest"]
    invoke = barrier.invoke_recorded
    watched = []

    def watching(inputs):
        value = inputs["crest_transforms"].value[0]
        assert isinstance(value, RegistrationResult)
        watched.append(weakref.ref(value))
        return invoke(inputs)

    barrier.invoke_recorded = watching
    result = app.enact(OptimizationConfig.sp_dp(), n_pairs=4)
    gc.collect()
    assert result.output_values("accuracy_rotation")
    # the completion's same-time siblings are still queued on the live engine
    assert engine.peek() == engine.now
    assert len(watched) == 1
    assert watched[0]() is None
    assert grid.records
