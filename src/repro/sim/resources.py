"""The shared-resource primitive of the DES kernel.

``Resource`` is a counting semaphore with FIFO granting — it models
worker-node slots, per-service concurrency caps (data parallelism off =
capacity 1), and middleware entry points.  It grants strictly in request
order, which keeps the simulator deterministic and makes the
pipeline-order assumptions of the paper's equation (3) hold (a service
processes data sets in arrival order).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["Resource"]


class Resource:
    """FIFO counting semaphore.

    Usage inside a process generator::

        req = resource.request()
        yield req
        try:
            yield engine.timeout(work)
        finally:
            resource.release(req)
    """

    def __init__(self, engine: Engine, capacity: int | float, name: str = "") -> None:
        if capacity != float("inf"):
            if not isinstance(capacity, int) or capacity < 1:
                raise ValueError(f"capacity must be a positive int or inf, got {capacity!r}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._request_name = f"request:{name}"
        self._in_use = 0
        self._waiting: Deque[Event] = deque()
        self._granted: set[int] = set()  # ids of live grants, to catch bad releases

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        req = self.engine.event(name=self._request_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            self._granted.add(id(req))
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Event) -> None:
        """Release the slot granted to *request*.

        Releasing a request that was never granted (or already
        released) raises, because silently tolerating it would mask
        accounting bugs in the middleware model.
        """
        if id(request) not in self._granted:
            if request in self._waiting:  # cancel a queued request
                self._waiting.remove(request)
                return
            raise SimulationError(f"release of non-granted request on {self.name!r}")
        self._granted.discard(id(request))
        self._in_use -= 1
        if self._waiting and self._in_use < self.capacity:
            nxt = self._waiting.popleft()
            self._in_use += 1
            self._granted.add(id(nxt))
            nxt.succeed(nxt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
            f" queued={len(self._waiting)}>"
        )
