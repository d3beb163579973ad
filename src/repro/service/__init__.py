"""Multi-tenant enactment service: many workflows, many users, one grid.

The paper's enactor runs one workflow for one user.  This package is
the control plane that turns it into a *service* — the deployment
shape MOTEUR actually had on EGEE, where a portal enacted workflows
for a whole community against shared infrastructure.  Three layers,
innermost first:

``logic``
    Pure decisions: run lifecycle, tenant quotas, usage-decayed
    fair share.  No I/O, no engine.
``store``
    Swappable persistence (:class:`InMemoryStateStore`,
    :class:`SQLiteStateStore` + per-run enactment journals).
``scheduler``
    :class:`EnactmentService`: multiplexes N concurrent
    :class:`~repro.core.enactor.MoteurEnactor` enactments over one
    shared simulated grid, with admission control and crash recovery.

``python -m repro.service`` is the CLI: tenants / submit / status /
cancel / drain / demo, plus the read-only ops views audit / metrics /
top.
"""

from repro.service.logic import (
    AdmissionDecision,
    FairShareLedger,
    QuotaError,
    RunRecord,
    RunState,
    TenantSpec,
    TransitionError,
    pick_next_explained,
)
from repro.service.scheduler import EnactmentService, EnactmentServiceError
from repro.service.store import InMemoryStateStore, SQLiteStateStore, StateStore

__all__ = [
    "EnactmentService",
    "EnactmentServiceError",
    "RunState",
    "RunRecord",
    "TenantSpec",
    "FairShareLedger",
    "AdmissionDecision",
    "pick_next_explained",
    "TransitionError",
    "QuotaError",
    "StateStore",
    "InMemoryStateStore",
    "SQLiteStateStore",
]
