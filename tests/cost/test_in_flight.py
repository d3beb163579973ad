"""In-flight contract: what a running SP+DP Bronze enactment holds per grid job.

Deterministic counts, never a clock.  One SP+DP enactment on 256 pairs
on the Table 1 testbed is started with ``MoteurEnactor.enact`` and
stepped to its 18 000th processed event (of about 40 000), near its
peak of jobs in flight; ``tests/tools/cost.py::in_flight_per_job``
then counts, against a baseline taken once the testbed and the
application exist, and divides by the grid jobs in flight at that
event:

* ``Process`` objects, other ``Event`` objects, bound methods and
  generators (GC-tracked, after ``gc.collect()``);
* bytes still traced by ``tracemalloc``.

Ceilings ratchet: a change that holds less lowers them.  They were
measured on CPython 3.11, whose object layout they depend on, so other
interpreters check only that the run is mid-flight there.  Under hash
seeds 0, 1, 7 and 123 the object counts did not move and the byte count
moved by under one byte per job, so no count is excluded; each ceiling
sits 1-2% above its measurement (the bound-method one at 0.02, above
the 0.016 of the enactor's eleven ``AllOf._check`` stage-barrier waiters).

For scale: with every event owning a callback list and every waiting
process a bound ``_resume`` method, an in-flight job held 3.95 bound
methods and 11 939 bytes here; processes, events and generators are
unchanged by that (3.94, 4.49 and 6.94).
"""

import sys

import pytest

from repro import Engine, OptimizationConfig
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core.enactor import MoteurEnactor
from repro.experiments.calibration import make_experiment_grid
from repro.util.rng import RandomStreams
from tests.tools.cost import in_flight_per_job

#: where the count is taken: an event index of the 256-pair run
AT_EVENT = 18_000
#: committed ceilings, per grid job in flight at AT_EVENT
MAX_PROCESSES_PER_JOB = 4.0
MAX_EVENTS_PER_JOB = 4.55
MAX_METHODS_PER_JOB = 0.02
MAX_GENERATORS_PER_JOB = 7.05
MAX_BYTES_PER_JOB = 9800.0


def _in_flight(n_pairs, at_event):
    """Start SP+DP on *n_pairs* and count what it holds at *at_event*."""
    engine = Engine()
    streams = RandomStreams(seed=42)
    grid = make_experiment_grid(engine, streams)
    app = BronzeStandardApplication(engine, grid, streams)
    enactor = MoteurEnactor(engine, app.workflow, OptimizationConfig.sp_dp(), grid=grid)
    dataset = app.build_dataset(n_pairs)
    counts, _ = in_flight_per_job(
        engine,
        lambda: enactor.enact(dataset),
        at_event,
        lambda: len(grid.records._live),
    )
    return counts


@pytest.fixture(scope="module")
def measured():
    _in_flight(4, 500)  # first-use imports and caches are not per-job state
    return _in_flight(256, AT_EVENT)


CEILINGS_APPLY = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="ceilings measured on CPython 3.11"
)


def test_counted_mid_flight(measured):
    assert measured.jobs > 600, measured


@CEILINGS_APPLY
def test_processes_per_job_within_ceiling(measured):
    assert measured.processes <= MAX_PROCESSES_PER_JOB, measured


@CEILINGS_APPLY
def test_events_per_job_within_ceiling(measured):
    assert measured.events <= MAX_EVENTS_PER_JOB, measured


@CEILINGS_APPLY
def test_bound_methods_per_job_within_ceiling(measured):
    # a waiting process waits as itself, not as a bound method
    assert measured.methods <= MAX_METHODS_PER_JOB, measured


@CEILINGS_APPLY
def test_generators_per_job_within_ceiling(measured):
    assert measured.generators <= MAX_GENERATORS_PER_JOB, measured


@CEILINGS_APPLY
def test_bytes_per_job_within_ceiling(measured):
    assert measured.bytes <= MAX_BYTES_PER_JOB, measured
