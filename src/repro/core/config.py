"""Optimization configuration: which of the paper's levers are on.

The evaluation (Section 4.4) runs six configurations mixing Data
Parallelism (DP), Service Parallelism (SP) and Job Grouping (JG); "the
configuration with no optimization (NOP) only includes workflow
parallelism".  :class:`OptimizationConfig` captures one such mix; the
canonical six live in :meth:`OptimizationConfig.paper_configurations`.

Semantics implemented by the enactor:

* **workflow parallelism** — always on (independent branches run
  concurrently; "trivial and implemented in all the workflow managers").
* **SP off** — stage barrier: a service only starts processing once
  every one of its predecessors has finished its *whole* data stream.
  This is what equations (1) and (2) describe.
* **SP on** — per-item firing (pipelining, equation (3)).
* **DP off** — at most one job in flight per service.
* **DP on** — one concurrent job per available data item (unbounded,
  hypothesis H2).
* **JG on** — maximal sequential chains of groupable wrapped services
  are fused into single-job virtual services before execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

__all__ = ["OptimizationConfig"]


@dataclass(frozen=True)
class OptimizationConfig:
    """One combination of the enactor's optimization levers."""

    data_parallelism: bool = False
    service_parallelism: bool = False
    job_grouping: bool = False
    #: "strict" aborts the run on the first unrecoverable invocation;
    #: "best_effort" contains it to its lineage (see repro.core.failures)
    failure_mode: str = "strict"

    def __post_init__(self) -> None:
        if self.failure_mode not in ("strict", "best_effort"):
            raise ValueError(
                f"failure_mode must be 'strict' or 'best_effort', got {self.failure_mode!r}"
            )

    @property
    def label(self) -> str:
        """The paper's name for this configuration (NOP, DP, SP+DP+JG, ...)."""
        parts = []
        if self.service_parallelism:
            parts.append("SP")
        if self.data_parallelism:
            parts.append("DP")
        if self.job_grouping:
            parts.append("JG")
        return "+".join(parts) if parts else "NOP"

    @property
    def best_effort(self) -> bool:
        """True when per-item failure containment is on."""
        return self.failure_mode == "best_effort"

    def with_best_effort(self) -> "OptimizationConfig":
        """This configuration with per-item failure containment on."""
        return replace(self, failure_mode="best_effort")

    @property
    def service_concurrency(self) -> "int | float":
        """Per-service concurrent-invocation cap: 1 without DP, unbounded with it."""
        return float("inf") if self.data_parallelism else 1

    # -- canonical configurations -------------------------------------------
    @classmethod
    def nop(cls) -> "OptimizationConfig":
        """Workflow parallelism only."""
        return cls()

    @classmethod
    def dp(cls) -> "OptimizationConfig":
        """Data parallelism only."""
        return cls(data_parallelism=True)

    @classmethod
    def sp(cls) -> "OptimizationConfig":
        """Service parallelism (pipelining) only."""
        return cls(service_parallelism=True)

    @classmethod
    def jg(cls) -> "OptimizationConfig":
        """Job grouping only."""
        return cls(job_grouping=True)

    @classmethod
    def sp_dp(cls) -> "OptimizationConfig":
        """Service + data parallelism."""
        return cls(data_parallelism=True, service_parallelism=True)

    @classmethod
    def sp_dp_jg(cls) -> "OptimizationConfig":
        """Everything on — the paper's best configuration."""
        return cls(data_parallelism=True, service_parallelism=True, job_grouping=True)

    @classmethod
    def paper_configurations(cls) -> List["OptimizationConfig"]:
        """The six rows of Table 1, in the paper's order."""
        return [cls.nop(), cls.jg(), cls.sp(), cls.dp(), cls.sp_dp(), cls.sp_dp_jg()]

    def __str__(self) -> str:
        return self.label
