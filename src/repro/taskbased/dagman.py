"""A DAGMan-like executor for statically expanded task graphs.

"An emblematic task-based workflow manager is indeed called Directed
Acyclic Graph Manager (DAGMan)."  The executor walks a
:class:`~repro.taskbased.dag.StaticDag`, submitting each task to the
grid as soon as all its parents completed — in the task-based world
every bit of parallelism is explicit in the expanded graph, so there is
no DP/SP distinction to configure (Sections 3.3-3.4: those levels "do
not make any sense" / are "included in the workflow parallelism").

Task durations come from a caller-provided profile (processor name ->
seconds or Distribution), standing in for the per-code costs that the
service approach would get from the services themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.grid.job import JobDescription
from repro.grid.middleware import Grid
from repro.sim.engine import Engine, Event
from repro.taskbased.dag import StaticDag, TaskInstance
from repro.util.distributions import Distribution

__all__ = ["DagmanExecutor", "DagRunResult"]


@dataclass
class DagRunResult:
    """Outcome of one DAG execution."""

    started_at: float
    finished_at: float
    task_count: int
    #: task_id -> grid job id
    job_ids: Dict[int, int] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Wall-clock seconds from first submission to last completion."""
        return self.finished_at - self.started_at


class DagmanExecutor:
    """Dependency-driven task submission over the simulated grid."""

    def __init__(
        self,
        engine: Engine,
        grid: Grid,
        durations: Mapping[str, "float | Distribution"],
        max_concurrent: Optional[int] = None,
        owner: str = "dagman",
    ) -> None:
        self.engine = engine
        self.grid = grid
        self.durations = dict(durations)
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.max_concurrent = max_concurrent
        self.owner = owner

    def run(self, dag: StaticDag) -> DagRunResult:
        """Execute *dag* to completion, driving the engine."""
        completion = self.engine.event(name="dagman")
        self.engine.process(self._run(dag, completion), name="dagman")
        return self.engine.run(until=completion)

    def _duration_for(self, task: TaskInstance) -> "float | Distribution":
        try:
            return self.durations[task.processor]
        except KeyError:
            raise KeyError(
                f"no duration profile for processor {task.processor!r}; "
                f"profiles exist for {sorted(self.durations)}"
            ) from None

    def _run(self, dag: StaticDag, completion: Event):
        from repro.sim.resources import Resource

        started_at = self.engine.now
        result = DagRunResult(
            started_at=started_at, finished_at=started_at, task_count=dag.task_count
        )
        done_events: Dict[int, Event] = {
            task.task_id: self.engine.event(name="task") for task in dag.tasks
        }
        throttle = (
            Resource(self.engine, self.max_concurrent, name="dagman-throttle")
            if self.max_concurrent is not None
            else None
        )
        for task in dag.tasks:
            self.engine.process(
                self._run_task(dag, task, done_events, throttle, result),
                name="dag-task",
            )
        if done_events:
            yield self.engine.all_of(list(done_events.values()))
        result.finished_at = self.engine.now
        completion.succeed(result)

    def _run_task(
        self,
        dag: StaticDag,
        task: TaskInstance,
        done_events: Dict[int, Event],
        throttle,
        result: DagRunResult,
    ):
        parent_ids = dag.parents.get(task.task_id, ())
        if parent_ids:
            yield self.engine.all_of([done_events[p] for p in parent_ids])
        request = None
        if throttle is not None:
            request = throttle.request()
            yield request
        try:
            description = JobDescription(
                name=task.label,
                command_line=f"{task.processor} <static args>",
                compute_time=self._duration_for(task),
                owner=self.owner,
                tags={"task_id": task.task_id, "processor": task.processor},
            )
            handle = self.grid.submit(description)
            record = yield handle.completion
            result.job_ids[task.task_id] = record.job_id
        finally:
            if throttle is not None and request is not None:
                throttle.release(request)
        done_events[task.task_id].succeed(task.task_id)
