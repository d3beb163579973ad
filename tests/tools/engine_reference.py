"""The list-of-callbacks event engine: the reference side of the engine oracle.

This is ``repro.sim.engine`` as it was before events kept a single
waiter in a slot: every event allocates a ``callbacks`` list, and a
process waits as its bound ``_resume`` method.  The classes are kept
verbatim but for :meth:`Event.add_waiter`, which appends to the list so
both engines take the same calls, and ``SimulationError``, imported from
the engine so both sides raise the same type.
``tests/properties/test_engine_oracle.py`` drives both engines through
the same random waiter patterns and compares what they do.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.engine import SimulationError

_PENDING = object()  # sentinel: event value not set yet


class Event:
    """A one-shot occurrence processes can wait on.

    An event goes through at most one transition:
    ``pending -> succeeded`` or ``pending -> failed``.
    """

    __slots__ = ("engine", "name", "callbacks", "_value", "_ok", "defused")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set to True by a consumer that handled a failure out-of-band,
        #: suppressing the "unhandled failed event" engine error.
        self.defused = False

    # -- state --------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event succeeded or failed."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception.  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    def add_waiter(self, waiter: Callable[["Event"], None]) -> None:
        """The engine's waiter API over this side's callback list."""
        self.callbacks.append(waiter)

    # -- transitions --------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value* (at the current time)."""
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.engine.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception*."""
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.engine.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None, name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(engine, name=name)
        self.delay = delay
        self._ok = True
        self._value = value
        engine.schedule(self, delay=delay)


class Initialize(Event):
    """Internal: starts a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, engine: "Engine", process: "Process") -> None:
        super().__init__(engine)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        engine.schedule(self)


class Process(Event):
    """A running simulated process wrapping generator *gen*.

    The process is itself an event: it triggers with the generator's
    return value when the generator finishes, or fails with the
    exception that escaped the generator.
    """

    __slots__ = ("_gen", "_target")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"Process needs a generator, got {type(gen).__name__}")
        super().__init__(engine, name=name or getattr(gen, "__name__", ""))
        self._gen = gen
        self._target: Optional[Event] = None  # event we are waiting on
        Initialize(engine, self)

    # -- engine plumbing ----------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger's value/exception."""
        self._target = None
        try:
            if trigger._ok:
                next_event = self._gen.send(trigger._value)
            else:
                trigger.defused = True
                next_event = self._gen.throw(trigger._value)
        except StopIteration as stop:
            if self._ok is None:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # escaped the generator: fail the process
            if self._ok is None:
                self.fail(exc)
            return

        if not isinstance(next_event, Event):
            # Tell the generator it misbehaved; this usually fails the process.
            self._gen.throw(
                SimulationError(f"process {self.name!r} yielded non-event {next_event!r}")
            )
            return
        if next_event.engine is not self.engine:
            self._gen.throw(SimulationError("yielded event belongs to a different engine"))
            return
        if next_event.callbacks is None:
            # Already processed event: resume immediately at the current time.
            immediate = Event(self.engine, name="immediate")
            immediate.callbacks.append(self._resume)
            if next_event._ok:
                immediate.succeed(next_event._value)
            else:
                immediate.fail(next_event._value)
                immediate.defused = True
            self._target = immediate
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event


class AllOf(Event):
    """Succeeds when all sub-events succeed; fails on the first failure.

    The success value is the list of sub-event values, in the order the
    sub-events were given (not the order they triggered in).
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = "") -> None:
        super().__init__(engine, name=name)
        self.events: List[Event] = list(events)
        self._remaining = 0
        for event in self.events:
            if event.engine is not self.engine:
                raise SimulationError("AllOf mixes events from different engines")
            if event.callbacks is None:  # already processed
                if not event._ok:
                    event.defused = True
                    if self._ok is None:
                        self.fail(event._value)
                continue
            self._remaining += 1
            event.callbacks.append(self._check)
        if self._ok is None and self._remaining == 0:
            self.succeed([e._value for e in self.events])

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0 and all(e.triggered and e._ok for e in self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(Event):
    """Succeeds (or fails) with the first sub-event that triggers.

    The success value is a ``(event, value)`` pair identifying which
    sub-event won.
    """

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = "") -> None:
        super().__init__(engine, name=name)
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf needs at least one event")
        for event in self.events:
            if event.engine is not self.engine:
                raise SimulationError("AnyOf mixes events from different engines")
            if event.callbacks is None:
                if self._ok is None:
                    if event._ok:
                        self.succeed((event, event._value))
                    else:
                        event.defused = True
                        self.fail(event._value)
                continue
            event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            if not event._ok:
                event.defused = True
            return
        if event._ok:
            self.succeed((event, event._value))
        else:
            event.defused = True
            self.fail(event._value)


class Engine:
    """The simulation engine: virtual clock plus event heap."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        #: events popped off the heap so far (throughput accounting)
        self.events_processed = 0
        #: largest heap population seen — the working-set size the
        #: planned flat-heap rebuild must not regress
        self.peak_heap_size = 0
        #: failed events absorbed via ``defused`` (the cancel/defuse
        #: idiom: timeout losers of AnyOf races, withdrawn
        #: jobs) rather than raised at the engine level
        self.events_cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Events pushed onto the heap so far (== the sequence counter)."""
        return self._sequence

    def counters(self) -> dict:
        """Lifetime counters, named for the metrics registry/runstore.

        The denominators for events/sec: how much work the engine did,
        how big its heap got, and how many failures were absorbed.
        """
        return {
            "engine.events_scheduled": float(self._sequence),
            "engine.events_processed": float(self.events_processed),
            "engine.peak_heap_size": float(self.peak_heap_size),
            "engine.events_cancelled": float(self.events_cancelled),
        }

    # -- event factories ----------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event succeeding after *delay* simulated seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start *gen* as a simulated process (begins at the current time)."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event], name: str = "") -> AllOf:
        """Composite event succeeding once all *events* succeed."""
        return AllOf(self, events, name=name)

    def any_of(self, events: Iterable[Event], name: str = "") -> AnyOf:
        """Composite event triggering with the first of *events*."""
        return AnyOf(self, events, name=name)

    # -- scheduling ----------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue a triggered *event* for callback processing after *delay*."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._sequence, event))
        self._sequence += 1
        if len(self._heap) > self.peak_heap_size:
            self.peak_heap_size = len(self._heap)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event off the heap."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        self._now, _, event = heapq.heappop(self._heap)
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok:
            if not event.defused:
                raise event._value
            self.events_cancelled += 1

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``: run until the schedule drains.
            a number: run until the clock reaches that time.
            an :class:`Event`: run until that event triggers, then
            return its value (raising if it failed).
        """
        if isinstance(until, Event):
            stop = until
            while not stop.triggered:
                if not self._heap:
                    raise SimulationError(
                        f"schedule ran dry before {stop!r} triggered (deadlock?)"
                    )
                self.step()
            if stop._ok:
                return stop._value
            stop.defused = True
            raise stop._value
        if until is not None:
            bound = float(until)
            if bound < self._now:
                raise SimulationError(f"until={bound} is in the past (now={self._now})")
            while self._heap and self._heap[0][0] <= bound:
                self.step()
            self._now = bound
            return None
        while self._heap:
            self.step()
        return None
