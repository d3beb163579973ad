"""The run status a client sees: plain, JSON-friendly data.

:func:`run_status` converts the internal
:class:`~repro.service.logic.RunRecord` so the scheduler never needs to
know how a run is presented (the CLI's ``status`` command prints it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.service.logic import RunRecord, RunState, TenantSpec

__all__ = ["RunStatus", "run_status", "RunState", "TenantSpec"]


@dataclass(frozen=True)
class RunStatus:
    """One run, as reported back to a client."""

    run_id: str
    tenant: str
    state: str
    workload: str
    n_items: int
    config_label: str
    seed: int
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    makespan: Optional[float]
    error: Optional[str]
    resumed: bool
    result: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "state": self.state,
            "workload": self.workload,
            "n_items": self.n_items,
            "config_label": self.config_label,
            "seed": self.seed,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "makespan": self.makespan,
            "error": self.error,
            "resumed": self.resumed,
            "result": dict(self.result),
        }


def run_status(record: RunRecord) -> RunStatus:
    """Present an internal run record to a client."""
    return RunStatus(
        run_id=record.run_id,
        tenant=record.tenant,
        state=record.state.value,
        workload=record.workload,
        n_items=record.n_items,
        config_label=record.config_label,
        seed=record.seed,
        submitted_at=record.submitted_at,
        started_at=record.started_at,
        finished_at=record.finished_at,
        makespan=record.makespan,
        error=record.error,
        resumed=record.resume,
        result=dict(record.result),
    )
