"""EGEE-like grid infrastructure simulator.

This subpackage is the substrate the paper's experiments ran on: a
production grid accessed through LCG2-style middleware.  We model the
pieces that shape the measured behaviour:

* a **user interface / resource broker** pipeline with stochastic
  submission and matchmaking latencies (`broker`, `overhead`),
* **computing elements** running internal batch schedulers over pools of
  worker nodes (`resources`, `batch`),
* **storage elements** with a replica catalog resolving Grid File Names
  and a network transfer-time model (`storage`, `transfer`),
* **background multi-user load** and **failures with resubmission**
  (`load`, `faults`),
* a façade tying it together with a submit/poll API (`middleware`), and
* canned configurations, from an idealized zero-overhead grid (used to
  validate the analytical model) to a calibrated EGEE-like testbed
  (`testbeds`).

The paper's central observation — that per-job grid overhead is both
large (~10 min) and highly variable (± 5 min), which is what makes
service parallelism and job grouping pay off — maps directly onto the
`OverheadModel` parameters of the testbed in use.
"""

from repro.grid.faults import DurabilityFaultModel, FaultModel, OutageSchedule
from repro.grid.job import JobDescription, JobLedger, JobRecord, JobRow, JobState
from repro.grid.middleware import Grid, SubmissionHandle, TransferFailedError
from repro.grid.overhead import OverheadModel
from repro.grid.storage import (
    LogicalFile,
    ReplicaCatalog,
    ReplicaUnavailableError,
    StorageElement,
    UnknownFileError,
)
from repro.grid.testbeds import (
    chaotic_testbed,
    cluster_testbed,
    egee_like_testbed,
    ideal_testbed,
)

__all__ = [
    "JobDescription",
    "JobRecord",
    "JobLedger",
    "JobRow",
    "JobState",
    "Grid",
    "SubmissionHandle",
    "OverheadModel",
    "LogicalFile",
    "ReplicaCatalog",
    "StorageElement",
    "FaultModel",
    "OutageSchedule",
    "DurabilityFaultModel",
    "ReplicaUnavailableError",
    "UnknownFileError",
    "TransferFailedError",
    "ideal_testbed",
    "cluster_testbed",
    "egee_like_testbed",
    "chaotic_testbed",
]
