"""MOTEUR — the paper's optimized service-based workflow enactor.

"hoMe-made OpTimisEd scUfl enactoR": this package is the primary
contribution of the paper, reimplemented on the simulated grid:

* :mod:`~repro.core.config` — the optimization switches: Data
  Parallelism (DP), Service Parallelism (SP), Job Grouping (JG);
  workflow parallelism is always on,
* :mod:`~repro.core.provenance` — history trees that uniquely identify
  every produced data item (Section 4.1's answer to the causality
  problem of DP+SP execution),
* :mod:`~repro.core.iteration` — the dot/cross iteration strategies of
  Section 2.2, provenance-aware so dot products stay correct when items
  overtake each other,
* :mod:`~repro.core.grouping` — the sequential-service grouping
  transformation of Section 3.6,
* :mod:`~repro.core.enactor` — the enactor itself,
* :mod:`~repro.core.trace` / :mod:`~repro.core.diagrams` — execution
  traces and the paper-style execution diagrams (Figures 4-6).
"""

from repro.core.config import OptimizationConfig
from repro.core.enactor import EnactmentResult, MoteurEnactor
from repro.core.failures import DeadLetter, FailureReport, InvocationFailure
from repro.core.grouping import GroupInfo, group_workflow
from repro.core.journal import EnactmentJournal, SimulatedCrash
from repro.core.provenance import HistoryTree, compatible
from repro.core.tokens import NO_DATA, DataToken
from repro.core.trace import ExecutionTrace, TraceEvent

__all__ = [
    "OptimizationConfig",
    "MoteurEnactor",
    "EnactmentResult",
    "HistoryTree",
    "compatible",
    "DataToken",
    "NO_DATA",
    "ExecutionTrace",
    "TraceEvent",
    "GroupInfo",
    "group_workflow",
    "InvocationFailure",
    "DeadLetter",
    "FailureReport",
    "EnactmentJournal",
    "SimulatedCrash",
]
