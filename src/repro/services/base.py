"""The abstract service contract and simple in-memory services.

A :class:`Service` is what the enactor composes: a named black box
with input and output ports, invoked asynchronously.  ``invoke``
returns immediately with an :class:`~repro.sim.engine.Event` that
succeeds with the output-port dictionary — this is the non-blocking
call semantics Section 3.1 requires for any parallelism to exist.

:class:`GridData` is the value that travels between services: an
optional Python object (the *real* data product, e.g. a rigid
transform) plus an optional :class:`~repro.grid.storage.LogicalFile`
identity (the GFN the middleware moves around).  Services exchange
GridData so that both the data-management story (transfers, catalogs)
and the application story (actual computed values) stay truthful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.grid.storage import LogicalFile
from repro.sim.engine import Engine, Event
from repro.util import codec

__all__ = ["GridData", "Service", "ServiceError", "LocalService", "InvocationRecord"]


class ServiceError(RuntimeError):
    """An invocation failed (bad ports, job failure, program error)."""


@codec.register("GridData")
@dataclass(frozen=True)
class GridData:
    """A datum exchanged between services: value and/or grid file."""

    value: Any = None
    file: Optional[LogicalFile] = None

    @cached_property
    def value_text(self) -> str:
        """The value's :mod:`repro.util.codec` text, for keys and log lines.

        Kept in the instance dict, outside the fields (no part in ``==``).
        """
        return codec.canonical(codec.encode(self.value))

    @property
    def gfn(self) -> Optional[str]:
        """The grid file name, if this datum lives on the grid."""
        return self.file.gfn if self.file is not None else None

    def command_line_token(self) -> str:
        """How this datum appears on a composed command line."""
        if self.file is not None:
            return self.file.gfn
        return str(self.value)

    @staticmethod
    def of(value: Any) -> "GridData":
        """Coerce an arbitrary object to GridData (identity if already one)."""
        if isinstance(value, GridData):
            return value
        if isinstance(value, LogicalFile):
            return GridData(value=None, file=value)
        return GridData(value=value)


@dataclass(slots=True)
class InvocationRecord:
    """One service invocation, for tracing and assertions."""

    invocation_id: int
    service: str
    inputs: Dict[str, GridData]
    submitted_at: float
    completed_at: Optional[float] = None
    outputs: Optional[Dict[str, GridData]] = None
    job_ids: Tuple[int, ...] = ()
    error: Optional[str] = None

    @property
    def duration(self) -> Optional[float]:
        """Wall-clock seconds of the invocation, once completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


_invocation_ids = itertools.count(1)


class Service:
    """Base class for composable application services."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        input_ports: Tuple[str, ...],
        output_ports: Tuple[str, ...],
    ) -> None:
        if not name:
            raise ValueError("a service needs a non-empty name")
        if len(set(input_ports)) != len(input_ports):
            raise ValueError(f"duplicate input ports on {name!r}: {input_ports}")
        if len(set(output_ports)) != len(output_ports):
            raise ValueError(f"duplicate output ports on {name!r}: {output_ports}")
        self.engine = engine
        self.name = name
        self.input_ports = tuple(input_ports)
        self.output_ports = tuple(output_ports)
        #: every invocation ever made, in submission order
        self.invocations: List[InvocationRecord] = []

    # -- contract -------------------------------------------------------
    def invoke(self, inputs: Mapping[str, Any]) -> Event:
        """Asynchronously invoke the service.

        Returns an event that succeeds with ``dict[port, GridData]`` or
        fails with :class:`ServiceError`.  Subclasses implement
        :meth:`_execute`; this wrapper validates ports and maintains the
        invocation log.
        """
        event, _ = self.invoke_recorded(inputs)
        return event

    def invoke_recorded(self, inputs: Mapping[str, Any]) -> "tuple[Event, InvocationRecord]":
        """Like :meth:`invoke` but also hands back the invocation record.

        The enactor uses the record to attach job ids to trace events;
        with many calls in flight, "last invocation" would be ambiguous.
        """
        data = {key: GridData.of(val) for key, val in inputs.items()}
        missing = set(self.input_ports) - set(data)
        extra = set(data) - set(self.input_ports)
        if missing or extra:
            raise ServiceError(
                f"{self.name}: bad invocation ports "
                f"(missing={sorted(missing)}, unexpected={sorted(extra)})"
            )
        record = InvocationRecord(
            invocation_id=next(_invocation_ids),
            service=self.name,
            inputs=data,
            submitted_at=self.engine.now,
        )
        self.invocations.append(record)
        result = self.engine.event(name=f"invoke:{self.name}")
        self.engine.process(self._guarded(record, data, result), name=f"svc:{self.name}")
        return result, record

    def _guarded(self, record: InvocationRecord, data: Dict[str, GridData], result: Event):
        try:
            outputs = yield from self._execute(record, data)
        except Exception as exc:
            record.completed_at = self.engine.now
            record.error = str(exc)
            wrapper = ServiceError(f"{self.name}: {exc}")
            # Keep the cause chain: the enactor's failure containment
            # digs through it for the JobFailedError and its record.
            wrapper.__cause__ = exc
            result.fail(wrapper)
            return
        bad = set(outputs) ^ set(self.output_ports)
        if bad:
            record.completed_at = self.engine.now
            record.error = f"wrong output ports {sorted(outputs)}"
            result.fail(ServiceError(f"{self.name}: produced ports {sorted(outputs)}, "
                                     f"declared {sorted(self.output_ports)}"))
            return
        wrapped = {key: GridData.of(val) for key, val in outputs.items()}
        record.completed_at = self.engine.now
        record.outputs = wrapped
        result.succeed(wrapped)

    def _execute(self, record: InvocationRecord, inputs: Dict[str, GridData]):
        """Generator: perform the invocation, returning the outputs dict."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator for subclass parity

    def cache_fingerprint(self) -> str:
        """Identity of the computation, for provenance-keyed result caching.

        Two services whose fingerprints are equal are assumed to compute
        the same deterministic function of their inputs.  Services that
        can describe their executable (the generic wrapper, grouped
        composites) override this with a descriptor-derived identity;
        the base implementation falls back to class + name + ports.
        """
        return (
            f"{type(self).__qualname__}:{self.name}"
            f":in={','.join(self.input_ports)}:out={','.join(self.output_ports)}"
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"in={list(self.input_ports)} out={list(self.output_ports)}>"
        )


class LocalService(Service):
    """A service computed in-process after a (possibly random) delay.

    No grid behind it — used in unit tests and in the analytical-model
    validation where job durations must be exact.  ``function`` maps
    input values (unwrapped from GridData) to a dict of output values.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        input_ports: Tuple[str, ...],
        output_ports: Tuple[str, ...],
        function: Optional[Callable[..., Mapping[str, Any]]] = None,
        duration: "float | Callable[[Dict[str, GridData]], float]" = 0.0,
    ) -> None:
        super().__init__(engine, name, input_ports, output_ports)
        self._function = function
        self._duration = duration

    def _execute(self, record: InvocationRecord, inputs: Dict[str, GridData]):
        delay = self._duration(inputs) if callable(self._duration) else self._duration
        if delay < 0:
            raise ServiceError(f"{self.name}: negative duration {delay}")
        if delay > 0:
            yield self.engine.timeout(delay)
        if self._function is None:
            # Pass-through: echo inputs onto same-named outputs where
            # possible, None elsewhere.
            return {
                port: inputs[port].value if port in inputs else None
                for port in self.output_ports
            }
        values = {key: data.value for key, data in inputs.items()}
        produced = self._function(**values)
        if not isinstance(produced, Mapping):
            raise ServiceError(
                f"{self.name}: function must return a mapping, got {type(produced).__name__}"
            )
        return dict(produced)
