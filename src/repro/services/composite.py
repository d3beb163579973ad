"""Virtual grouped services (Section 3.6, Figure 7 bottom).

Grouping sequential services "breaks the hypothesis of all services
seen as black boxes whose internal logic is unknown": because every
grouped service is an instance of the generic wrapper, the enactor can
read their executable descriptors and "dynamically create a virtual
service, composing the command lines of the codes to be invoked, and
submitting a single job corresponding to this sequence of command lines
invocation."

Concretely a :class:`CompositeService` over stages ``S0 -> S1 -> ...``:

* pays the grid overhead (submission, brokering, queuing) **once**,
* stages in the union of external inputs and every stage's sandboxes
  **once**,
* keeps intermediate data **local to the worker node** — no transfer,
  no catalog registration (that is the "Output data transfer / Input
  data transfer" pair that disappears in Figure 7),
* executes for the **sum** of the stages' compute times, and
* registers only the outputs that are visible outside the group.

The composite still honours the standard service contract, so "the
workflow can still be executed by other enactors" — it is just another
Service with ports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.grid.job import JobDescription
from repro.grid.storage import LogicalFile
from repro.services.base import GridData, InvocationRecord, Service, ServiceError
from repro.services.wrapper import GenericWrapperService
from repro.sim.engine import Engine
from repro.util.distributions import SumOf

__all__ = ["CompositeService", "InternalLink"]

#: (consumer_stage_index, consumer_port) -> (producer_stage_index, producer_port)
InternalLink = Tuple[Tuple[int, str], Tuple[int, str]]


class CompositeService(Service):
    """A single-job virtual service over a chain of wrapped services.

    Parameters
    ----------
    stages:
        The wrapped services, in execution order.
    internal_links:
        Mapping ``(i, in_port) -> (j, out_port)`` with ``j < i``: stage
        *i*'s input is fed by stage *j*'s output inside the group.
        Every stage input not covered here becomes an external input of
        the composite; every stage output not consumed here (solely)
        becomes an external output.

    Port naming: a stage port keeps its bare name if it is unambiguous
    across the group, otherwise it is qualified as ``stage.port``.
    """

    def __init__(
        self,
        engine: Engine,
        stages: Sequence[GenericWrapperService],
        internal_links: Optional[Mapping[Tuple[int, str], Tuple[int, str]]] = None,
        name: Optional[str] = None,
    ) -> None:
        if not stages:
            raise ServiceError("a composite service needs at least one stage")
        for stage in stages:
            if not isinstance(stage, GenericWrapperService):
                raise ServiceError(
                    "only generic-wrapper services can be grouped (their "
                    f"descriptors are readable); got {type(stage).__name__}"
                )
        grids = {id(stage.grid) for stage in stages}
        if len(grids) != 1:
            raise ServiceError("grouped services must target the same grid")

        self.stages: List[GenericWrapperService] = list(stages)
        self.internal_links: Dict[Tuple[int, str], Tuple[int, str]] = dict(internal_links or {})
        self.grid = self.stages[0].grid

        for (ci, cport), (pj, pport) in self.internal_links.items():
            if not (0 <= pj < ci < len(self.stages)):
                raise ServiceError(
                    f"internal link ({ci},{cport}) <- ({pj},{pport}) must go "
                    "from an earlier stage to a later one"
                )
            if cport not in self.stages[ci].input_ports:
                raise ServiceError(f"stage {ci} has no input port {cport!r}")
            if pport not in self.stages[pj].output_ports:
                raise ServiceError(f"stage {pj} has no output port {pport!r}")

        # -- derive the exposed ports and their stage bindings -------------
        self._input_map: Dict[str, Tuple[int, str]] = {}
        self._output_map: Dict[str, Tuple[int, str]] = {}
        internally_consumed = set(self.internal_links.values())

        def exposed_name(kind: str, idx: int, port: str, taken: Dict[str, Tuple[int, str]]) -> str:
            # Bare name when unique among *exposed* ports of this kind.
            if port not in taken and not any(
                existing.endswith(f".{port}") for existing in taken
            ):
                return port
            return f"{self.stages[idx].name}.{port}"

        for idx, stage in enumerate(self.stages):
            for port in stage.input_ports:
                if (idx, port) in self.internal_links:
                    continue
                public = exposed_name("in", idx, port, self._input_map)
                if public in self._input_map:
                    public = f"{stage.name}.{port}"
                self._input_map[public] = (idx, port)
            for port in stage.output_ports:
                if (idx, port) in internally_consumed:
                    continue
                public = exposed_name("out", idx, port, self._output_map)
                if public in self._output_map:
                    public = f"{stage.name}.{port}"
                self._output_map[public] = (idx, port)

        composite_name = name or "+".join(stage.name for stage in self.stages)
        super().__init__(
            engine,
            composite_name,
            tuple(self._input_map),
            tuple(self._output_map),
        )
        #: tags stamped on every grouped job (shared: nothing mutates them)
        self._job_tags: Dict[str, Any] = {
            **self.stages[0].tags,
            "service": self.name,
            "grouped": True,
            "stages": len(self.stages),
        }

    # -- introspection -------------------------------------------------------
    def public_input_name(self, stage_index: int, port: str) -> str:
        """The exposed name of stage input ``(stage_index, port)``.

        Raises ``KeyError`` for internally-linked (non-exposed) inputs;
        the grouping machinery uses this to re-route workflow links.
        """
        for public, target in self._input_map.items():
            if target == (stage_index, port):
                return public
        raise KeyError(f"stage input ({stage_index}, {port!r}) is not exposed")

    def public_output_name(self, stage_index: int, port: str) -> str:
        """The exposed name of stage output ``(stage_index, port)``."""
        for public, source in self._output_map.items():
            if source == (stage_index, port):
                return public
        raise KeyError(f"stage output ({stage_index}, {port!r}) is not exposed")

    def cache_fingerprint(self) -> str:
        """Grouped services cache as **one** entry covering all stages.

        The identity is the ordered chain of stage fingerprints plus the
        internal wiring: change any stage's descriptor or re-route an
        internal link and every cached result of the group is invalidated
        at once — there is no per-stage entry to go stale, because a
        grouped job never materializes per-stage results outside the
        worker node in the first place (Section 3.6)."""
        stage_fps = ";".join(stage.cache_fingerprint() for stage in self.stages)
        links = ",".join(
            f"{ci}.{cport}<-{pj}.{pport}"
            for (ci, cport), (pj, pport) in sorted(self.internal_links.items())
        )
        return f"composite:[{stage_fps}]:links=[{links}]"

    # -- execution -------------------------------------------------------------
    def _execute(self, record: InvocationRecord, inputs: Dict[str, GridData]):
        # Distribute external inputs to stages.
        per_stage_inputs: List[Dict[str, GridData]] = [dict() for _ in self.stages]
        for public, datum in inputs.items():
            idx, port = self._input_map[public]
            per_stage_inputs[idx][port] = datum

        bindings_per_stage: List[Dict[str, str]] = []
        staged: List[str] = []
        produced: List[LogicalFile] = []
        minted: Dict[Tuple[int, str], Optional[LogicalFile]] = {}
        internally_consumed = set(self.internal_links.values())

        for idx, stage in enumerate(self.stages):
            bindings: Dict[str, str] = {}
            staged.extend(stage.sandbox_gfns)
            for spec in stage.descriptor.inputs:
                key = (idx, spec.name)
                if key in self.internal_links:
                    pj, pport = self.internal_links[key]
                    # Intermediate datum: referenced by its local scratch
                    # name on the worker — the whole point of grouping.
                    bindings[spec.name] = _local_name(self.stages[pj].name, pport)
                    continue
                datum = per_stage_inputs[idx].get(spec.name)
                if datum is None:
                    raise ServiceError(
                        f"{self.name}: missing input for stage {stage.name!r} "
                        f"port {spec.name!r}"
                    )
                if spec.is_file and datum.file is not None:
                    bindings[spec.name] = datum.file.gfn
                    staged.append(datum.file.gfn)
                else:
                    bindings[spec.name] = datum.command_line_token()
            for spec in stage.descriptor.outputs:
                key = (idx, spec.name)
                if key in internally_consumed and (idx, spec.name) not in self._exposed_outputs():
                    bindings[spec.name] = _local_name(stage.name, spec.name)
                    minted[key] = None
                else:
                    file = LogicalFile.fresh(
                        f"{self.name}/{stage.name}/{spec.name}",
                        size=stage.output_size(spec.name),
                    )
                    bindings[spec.name] = file.gfn
                    minted[key] = file
                    produced.append(file)
                self._note_grouping_savings(stage, spec.name, key, minted[key])
            bindings_per_stage.append(bindings)

        command_line = " && ".join(
            stage.descriptor.command_line(bindings)
            for stage, bindings in zip(self.stages, bindings_per_stage)
        )
        payload = self._make_payload(per_stage_inputs)
        description = JobDescription(
            name=f"{self.name}#{self.calls}",
            command_line=command_line,
            compute_time=SumOf([stage.compute_model for stage in self.stages]),
            input_files=tuple(staged),
            output_files=tuple(produced),
            payload=payload,
            owner=self.stages[0].owner,
            tags=self._job_tags,
        )
        handle = self.grid.submit(description)
        job_record = yield handle.completion
        record.job_ids = (job_record.job_id,)

        values: Mapping[Tuple[int, str], Any] = job_record.result or {}
        outputs: Dict[str, GridData] = {}
        for public, (idx, port) in self._output_map.items():
            outputs[public] = GridData(value=values.get((idx, port)), file=minted.get((idx, port)))
        return outputs

    def _exposed_outputs(self) -> set:
        return set(self._output_map.values())

    def _note_grouping_savings(
        self,
        stage: GenericWrapperService,
        port: str,
        key: Tuple[int, str],
        file: Optional[LogicalFile],
    ) -> None:
        """Account the transfers this output will *not* pay (Figure 7).

        Each internal consumer of the output reads worker-local scratch
        instead of staging the file in; when the output is not exposed
        at all, the stage-out transfer disappears too.  The sum lands on
        the ``bytes.intermediate_saved_by_grouping`` counter — the
        quantitative form of the paper's claim that grouping removes
        the intermediate "Output data transfer / Input data transfer"
        pair.
        """
        internal_consumers = sum(
            1 for target in self.internal_links.values() if target == key
        )
        if internal_consumers == 0:
            return
        bus = self.grid.instrumentation
        if bus is None:
            return
        size = int(round(float(stage.output_size(port))))
        saved = size * internal_consumers
        if file is None:
            saved += size
        bus.metrics.counter("bytes.intermediate_saved_by_grouping").inc(saved)

    def _make_payload(self, per_stage_inputs: List[Dict[str, GridData]]):
        """Build the job payload: run every stage's program in order.

        Values flow stage-to-stage through the internal links, exactly
        as the files would flow through the worker's scratch space.
        """
        stages = self.stages
        links = self.internal_links

        def payload() -> Dict[Tuple[int, str], Any]:
            results: Dict[Tuple[int, str], Any] = {}
            for idx, stage in enumerate(stages):
                kwargs: Dict[str, Any] = {}
                for port in stage.input_ports:
                    key = (idx, port)
                    if key in links:
                        kwargs[port] = results.get(links[key])
                    else:
                        datum = per_stage_inputs[idx].get(port)
                        kwargs[port] = datum.value if datum is not None else None
                if stage.program is None:
                    stage_result: Mapping[str, Any] = {}
                else:
                    stage_result = stage.program(**kwargs)
                    if not isinstance(stage_result, Mapping):
                        raise ServiceError(
                            f"{stage.name}: program must return a mapping, "
                            f"got {type(stage_result).__name__}"
                        )
                for port in stage.output_ports:
                    results[(idx, port)] = stage_result.get(port)
            return results

        return payload


def _local_name(stage_name: str, port: str) -> str:
    """Scratch-space path for an intermediate file inside a grouped job."""
    return f"./{stage_name}.{port}.tmp"
