"""Retention contract: what a finished SP+DP Bronze enactment keeps per grid job.

Deterministic counts, never a clock.  One SP+DP enactment per size on
the Table 1 testbed, the result and the grid kept alive, measured after
``gc.collect()`` against a baseline taken once the testbed and the
application exist; each count is divided by the grid jobs the run
submitted (6 per image pair):

* GC-tracked objects (``len(gc.get_objects())``);
* allocated memory blocks (``sys.getallocatedblocks()``).

At 256 pairs both must stay at or under the committed ceilings, and
the 256-pair value must be at most 1.1x the 32-pair value: what a job
keeps does not grow with the size of the run.  Ceilings ratchet: a
change that keeps less lowers them.  They were measured on CPython
3.11, whose object layout they depend on, so other interpreters check
the growth bound only.  Over five runs under ``PYTHONHASHSEED=random``,
inside the whole suite and alone, the object counts did not move; the
block counts moved by up to 0.05 per job at 256 pairs and 1.0 at 32
(free lists and caches that earlier tests warmed), inside the ceiling's
rounding and the growth bound, so no count is excluded.

For scale: timestamp lists for all eight states, the payload closure
with its input values and a tags dict kept per job, with no
``__slots__``, read 39.1 objects and 89.7 blocks per job at 256 pairs.
"""

import gc
import sys

import pytest

from repro import Engine, OptimizationConfig
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.experiments.calibration import make_experiment_grid
from repro.grid.job import JobState
from repro.util.rng import RandomStreams

#: committed ceilings at 256 pairs, per grid job
MAX_OBJECTS_PER_JOB = 28.2
MAX_BLOCKS_PER_JOB = 71.8
#: the large size over the small one
MAX_GROWTH = 1.1


def _retained(n_pairs):
    """Enact SP+DP on *n_pairs*; per-job retained counts plus what keeps them."""
    engine = Engine()
    streams = RandomStreams(seed=42)
    grid = make_experiment_grid(engine, streams)
    app = BronzeStandardApplication(engine, grid, streams)
    gc.collect()
    objects, blocks = len(gc.get_objects()), sys.getallocatedblocks()
    result = app.enact(OptimizationConfig.sp_dp(), n_pairs=n_pairs)
    gc.collect()
    jobs = len(grid.records)
    per_job = (
        (len(gc.get_objects()) - objects) / jobs,
        (sys.getallocatedblocks() - blocks) / jobs,
    )
    return per_job, (result, grid)


@pytest.fixture(scope="module")
def measured():
    _retained(2)  # first-use imports and caches are not per-job state
    small, _ = _retained(32)
    large, kept = _retained(256)
    return small, large, kept


CEILINGS_APPLY = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="ceilings measured on CPython 3.11"
)


@CEILINGS_APPLY
def test_objects_per_job_within_ceiling(measured):
    _, (objects, _), _ = measured
    assert objects <= MAX_OBJECTS_PER_JOB, objects


@CEILINGS_APPLY
def test_blocks_per_job_within_ceiling(measured):
    _, (_, blocks), _ = measured
    assert blocks <= MAX_BLOCKS_PER_JOB, blocks


def test_retained_per_job_does_not_grow_with_run_size(measured):
    small, large, _ = measured
    assert large[0] <= MAX_GROWTH * small[0], (small, large)
    assert large[1] <= MAX_GROWTH * small[1], (small, large)


def test_done_jobs_keep_only_what_statistics_read(measured):
    _, _, (result, grid) = measured
    done = [record for record in grid.records if record.state is JobState.DONE]
    assert len(done) == 6 * 256
    for record in done:
        assert record.description.payload is None
        # a state is a key only once the job entered it
        assert all(record.timestamps.values())
        assert JobState.CREATED not in record.timestamps
        assert record.timestamps[JobState.CANCELLED] == []
        assert JobState.CANCELLED not in record.timestamps
    assert result.output_values("accuracy_rotation")
