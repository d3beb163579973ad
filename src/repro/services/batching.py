"""Intra-service job batching: the paper's stated future work.

Section 5.4: "In the future, we plan to address this problem by
grouping jobs of a single service, thus finding a trade-off between
data parallelism and the system's overhead."

:class:`BatchingService` implements that trade-off as a transparent
service combinator: it fronts a
:class:`~repro.services.wrapper.GenericWrapperService` and coalesces up
to ``batch_size`` concurrent invocations into **one** grid job whose
command line chains the member command lines — the intra-service
analogue of the inter-service grouping of Section 3.6.  Each caller
still gets its own outputs; what changes is that the batch pays the
submission/scheduling/queuing overhead once and serializes its members'
compute on one worker.

Flush policy: a batch is submitted when it reaches ``batch_size``
members, or — so that stream tails and slow producers cannot stall it
forever — ``max_wait`` simulated seconds after its first member arrived.

Choosing ``batch_size`` is exactly the optimization problem
`repro.model.probabilistic.GranularityModel` analyzes (benchmark E12):
k = 1 maximizes data parallelism but pays a max over many overhead
draws; large k serializes compute; heavy-tailed overheads put the
optimum in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.grid.job import JobDescription
from repro.services.base import GridData, InvocationRecord, Service, ServiceError
from repro.services.wrapper import GenericWrapperService, PreparedJob
from repro.sim.engine import Engine, Event
from repro.util.distributions import SumOf

__all__ = ["BatchingService"]


@dataclass
class _Batch:
    """One forming batch of invocations."""

    done: Event
    members: List[PreparedJob] = field(default_factory=list)
    closed: bool = False
    job_id: Optional[int] = None


class BatchingService(Service):
    """Coalesce invocations of one wrapped service into shared grid jobs."""

    def __init__(
        self,
        engine: Engine,
        inner: GenericWrapperService,
        batch_size: int,
        max_wait: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(inner, GenericWrapperService):
            raise ServiceError(
                "only generic-wrapper services can batch (their job "
                f"composition is readable); got {type(inner).__name__}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_wait is not None and max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        super().__init__(
            engine,
            name or f"{inner.name}[x{batch_size}]",
            inner.input_ports,
            inner.output_ports,
        )
        self.inner = inner
        self.grid = inner.grid
        self.batch_size = batch_size
        self.max_wait = max_wait
        self._current: Optional[_Batch] = None
        self.batches_submitted = 0

    # -- Service contract -------------------------------------------------
    def _execute(self, record: InvocationRecord, inputs: Dict[str, GridData]):
        batch = self._current
        if batch is None or batch.closed:
            batch = _Batch(done=self.engine.event(name="batch"))
            self._current = batch
            if self.max_wait is not None:
                self.engine.process(self._flush_timer(batch), name="batch-timer")
        prepared = self.inner.prepare_job(inputs, label=f"{self.name}#{record.invocation_id}")
        index = len(batch.members)
        batch.members.append(prepared)
        if len(batch.members) >= self.batch_size:
            self._flush(batch)

        results = yield batch.done  # list of per-member payload results
        if batch.job_id is not None:
            record.job_ids = (batch.job_id,)
        return self.inner.decode_outputs(results[index], batch.members[index].minted)

    def flush(self) -> None:
        """Force-submit the forming batch (e.g. at stream end).

        Deferred by one scheduling round so that invocations issued
        before the flush — whose processes have not started yet — join
        the batch first.
        """
        self.engine.process(self._deferred_flush(), name="batch-flush")

    def _deferred_flush(self):
        if self._current is not None and not self._current.closed and self._current.members:
            self._flush(self._current)
        return
        yield  # pragma: no cover - marks this function as a generator

    # -- batch lifecycle ----------------------------------------------------
    def _flush_timer(self, batch: _Batch):
        yield self.engine.timeout(self.max_wait)
        if not batch.closed and batch.members:
            self._flush(batch)

    def _flush(self, batch: _Batch) -> None:
        batch.closed = True
        if self._current is batch:
            self._current = None
        self.batches_submitted += 1
        self.engine.process(self._run_batch(batch), name="batch-run")

    def _run_batch(self, batch: _Batch):
        members = batch.members
        command_line = " && ".join(m.description.command_line for m in members)
        staged: Tuple[str, ...] = tuple(
            dict.fromkeys(gfn for m in members for gfn in m.description.input_files)
        )
        produced = tuple(f for m in members for f in m.description.output_files)
        payloads = [m.description.payload for m in members]

        def payload() -> List[Any]:
            return [p() if p is not None else None for p in payloads]

        description = JobDescription(
            name=f"{self.name}#batch{self.batches_submitted}",
            command_line=command_line,
            compute_time=SumOf(
                [m.description.compute_distribution() for m in members]
            ),
            input_files=staged,
            output_files=produced,
            payload=payload,
            owner=self.inner.owner,
            tags={"service": self.name, "batched": True, "members": len(members)},
        )
        try:
            handle = self.grid.submit(description)
            job_record = yield handle.completion
        except Exception as exc:
            batch.done.fail(ServiceError(f"{self.name}: batch job failed: {exc}"))
            return
        batch.job_id = job_record.job_id
        batch.done.succeed(job_record.result)
