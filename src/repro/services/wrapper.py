"""The generic wrapper service (Section 3.6).

One class turns any legacy code into a grid-aware service: it

1. takes an :class:`~repro.services.descriptor.ExecutableDescriptor`
   ("a generic descriptor of the executable command line") plus the
   invocation-time inputs,
2. dynamically composes the actual command line,
3. submits a single grid job that stages in the input data and the
   sandboxed files, runs the code, and registers the outputs, and
4. returns the outputs as :class:`~repro.services.base.GridData`.

"This generic service highly simplifies application development because
it is able to wrap any legacy code with a minimal effort" — here the
"legacy code" is a Python callable (`program`) standing in for the real
binary, with a compute-time model describing how long the binary runs.
The callable gives the simulation *real* data products; the compute
model gives it *realistic* durations.

The wrapper is also what makes job grouping possible: because the
enactor can read descriptors, it can compose the command lines of
several codes into one job — see :mod:`repro.services.composite`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.grid.job import JobDescription
from repro.grid.middleware import Grid
from repro.grid.storage import LogicalFile
from repro.services.base import GridData, InvocationRecord, Service, ServiceError
from repro.services.descriptor import ExecutableDescriptor, descriptor_to_xml
from repro.sim.engine import Engine
from repro.util.distributions import Distribution, as_distribution
from repro.util.units import KIBIBYTE, MEBIBYTE

__all__ = ["GenericWrapperService", "PreparedJob"]

#: A program is the in-simulation stand-in for the wrapped binary:
#: it maps input values to a mapping of output values.
Program = Callable[..., Mapping[str, Any]]


@dataclass(slots=True)
class PreparedJob:
    """A composed job plus the plan to decode its outputs."""

    description: JobDescription
    #: output port -> the LogicalFile minted for it (None if value-only)
    minted: Dict[str, Optional[LogicalFile]]


class GenericWrapperService(Service):
    """Wrap a descriptor + program into a grid-submitting service.

    Parameters
    ----------
    grid:
        The infrastructure jobs go to.
    descriptor:
        Command-line and data-access description of the wrapped code.
    program:
        Optional Python stand-in executed at job completion; receives
        input *values* by port name, returns output values by port
        name.  Omit it for pure timing studies.
    compute_time:
        Seconds (or a Distribution) of payload execution on a
        reference-speed worker.
    output_sizes:
        Port name -> produced file size in bytes (default 1 MiB).
    """

    def __init__(
        self,
        engine: Engine,
        grid: Grid,
        descriptor: ExecutableDescriptor,
        program: Optional[Program] = None,
        compute_time: "float | Distribution" = 0.0,
        output_sizes: Optional[Mapping[str, float]] = None,
        owner: str = "user",
        sandbox_size: float = 64 * KIBIBYTE,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> None:
        super().__init__(
            engine, descriptor.name, descriptor.input_ports, descriptor.output_ports
        )
        self.grid = grid
        self.descriptor = descriptor
        self.program = program
        self.compute_model = as_distribution(compute_time)
        self.output_sizes = dict(output_sizes or {})
        self.owner = owner
        #: extra accounting tags stamped on every job this service
        #: submits (e.g. tenant / run id in multi-tenant enactments)
        self.tags: Dict[str, Any] = dict(tags or {})
        #: what every job carries: one dict shared by all of them
        self._job_tags: Dict[str, Any] = {**self.tags, "service": self.name}
        # Publish sandboxed files once: they are fetched by every job
        # (Figure 8 lists three of them for CrestLines.pl).
        self.sandbox_gfns: Tuple[str, ...] = tuple(
            self._publish_sandbox(sb.value, sandbox_size) for sb in descriptor.sandboxes
        )
        self._counter = 0
        #: (descriptor, SHA-256 of its XML) for cache_fingerprint
        self._descriptor_digest: Optional[Tuple[ExecutableDescriptor, str]] = None

    def _publish_sandbox(self, value: str, size: float) -> str:
        gfn = f"gfn://sandbox/{self.name}/{value}"
        if not self.grid.catalog.knows(gfn):
            self.grid.add_input_file(LogicalFile(gfn, size=size))
        return gfn

    def output_size(self, port: str) -> float:
        """Declared size of the file produced on *port*."""
        return float(self.output_sizes.get(port, 1 * MEBIBYTE))

    # -- job composition ---------------------------------------------------
    def prepare_job(self, inputs: Mapping[str, GridData], label: Optional[str] = None) -> PreparedJob:
        """Compose the command line and job description for one invocation.

        Exposed separately from :meth:`invoke` because the grouping
        machinery reuses it to build virtual composite jobs.
        """
        self._counter += 1
        label = label or f"{self.name}#{self._counter}"

        bindings: Dict[str, str] = {}
        staged: list[str] = list(self.sandbox_gfns)
        values: Dict[str, Any] = {}
        for spec in self.descriptor.inputs:
            datum = inputs.get(spec.name)
            if datum is None:
                raise ServiceError(f"{self.name}: missing input {spec.name!r}")
            values[spec.name] = datum.value
            if spec.is_file and datum.file is not None:
                bindings[spec.name] = datum.file.gfn
                staged.append(datum.file.gfn)
            else:
                bindings[spec.name] = datum.command_line_token()

        minted: Dict[str, Optional[LogicalFile]] = {}
        produced: list[LogicalFile] = []
        for spec in self.descriptor.outputs:
            file = LogicalFile.fresh(f"{self.name}/{spec.name}", size=self.output_size(spec.name))
            minted[spec.name] = file
            produced.append(file)
            bindings[spec.name] = file.gfn

        command_line = self.descriptor.command_line(bindings)
        program = self.program
        output_ports = self.output_ports

        def payload() -> Dict[str, Any]:
            if program is None:
                return {port: None for port in output_ports}
            result = program(**values)
            if not isinstance(result, Mapping):
                raise ServiceError(
                    f"{self.name}: program must return a mapping, got {type(result).__name__}"
                )
            return {port: result.get(port) for port in output_ports}

        description = JobDescription(
            name=label,
            command_line=command_line,
            compute_time=self.compute_model,
            input_files=tuple(staged),
            output_files=tuple(produced),
            payload=payload,
            owner=self.owner,
            tags=self._job_tags,
        )
        return PreparedJob(description=description, minted=minted)

    def decode_outputs(self, result: Any, minted: Mapping[str, Optional[LogicalFile]]) -> Dict[str, GridData]:
        """Pair payload values with the minted grid files."""
        values = result if isinstance(result, Mapping) else {}
        return {
            port: GridData(value=values.get(port), file=minted.get(port))
            for port in self.output_ports
        }

    def cache_fingerprint(self) -> str:
        """Descriptor-derived identity: the Figure 8 document fully
        determines the composed command line, so its serialized form
        (plus the declared output sizes) is the computation's identity."""
        descriptor = self.descriptor
        memo = self._descriptor_digest
        if memo is None or memo[0] is not descriptor:
            # The descriptor is frozen, so its digest is a function of the
            # object; a replaced descriptor gets a fresh one.  Output sizes
            # live in a mutable dict and are encoded on every call.
            digest = hashlib.sha256(descriptor_to_xml(descriptor).encode("utf-8")).hexdigest()
            memo = self._descriptor_digest = (descriptor, digest)
        digest = memo[1]
        sizes = ",".join([f"{port}={self.output_size(port)}" for port in self.output_ports])
        return f"wrapper:{self.name}:{digest}:sizes={sizes}"

    # -- Service contract ----------------------------------------------------
    def _execute(self, record: InvocationRecord, inputs: Dict[str, GridData]):
        prepared = self.prepare_job(inputs)
        handle = self.grid.submit(prepared.description)
        job_record = yield handle.completion
        record.job_ids = (job_record.job_id,)
        return self.decode_outputs(job_record.result, prepared.minted)
