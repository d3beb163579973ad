"""Batch-queue scheduling policies for computing elements.

Each EGEE computing center "runs its internal batch scheduler"
(Section 4.3).  A policy owns the set of queued entries and decides
which one runs next when the computing element has a free worker slot.

Policies implement a blocking ``get``: the CE dispatch loop asks for
the next entry and is woken as soon as the policy can produce one.
All policies are deterministic given the arrival order.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Optional

from repro.sim.engine import Engine, Event

__all__ = ["QueuePolicy", "FifoPolicy", "FairSharePolicy"]


class QueuePolicy:
    """Interface: a queue of entries with a blocking, policy-driven get."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._getter: Optional[Event] = None  # the CE loop's pending request

    # -- policy internals to override ----------------------------------
    def _enqueue(self, entry: Any) -> None:
        raise NotImplementedError

    def _dequeue(self) -> Any:
        """Pick and remove the next entry.  Only called when non-empty."""
        raise NotImplementedError

    def _remove(self, entry: Any) -> bool:
        """Withdraw *entry* if present; True when something was removed."""
        raise NotImplementedError

    def _entries(self) -> "list[Any]":
        """Every queued entry (no particular order guarantee)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- public API ------------------------------------------------------
    def put(self, entry: Any) -> None:
        """Add *entry*; wakes the CE loop if it is waiting."""
        self._enqueue(entry)
        if self._getter is not None and len(self) > 0:
            getter, self._getter = self._getter, None
            getter.succeed(self._dequeue())

    def get(self) -> Event:
        """Event succeeding with the next entry chosen by the policy.

        Only one outstanding get at a time (the CE has one dispatch
        loop); a second concurrent get is a programming error.
        """
        if self._getter is not None:
            raise RuntimeError(f"{type(self).__name__} already has a pending get")
        evt = self.engine.event(name=f"dequeue:{type(self).__name__}")
        if len(self) > 0:
            evt.succeed(self._dequeue())
        else:
            self._getter = evt
        return evt

    def remove(self, entry: Any) -> bool:
        """Withdraw a still-queued *entry* (job cancellation).

        Returns True when the entry was present and removed; an entry
        already dispatched (or never enqueued) returns False — the
        caller must then treat the job as running.
        """
        return self._remove(entry)

    def entries(self) -> "list[Any]":
        """A snapshot of currently queued entries."""
        return self._entries()


class FifoPolicy(QueuePolicy):
    """Strict arrival-order scheduling (the common PBS/LSF default)."""

    def __init__(self, engine: Engine) -> None:
        super().__init__(engine)
        self._queue: Deque[Any] = deque()

    def _enqueue(self, entry: Any) -> None:
        self._queue.append(entry)

    def _dequeue(self) -> Any:
        return self._queue.popleft()

    def _remove(self, entry: Any) -> bool:
        try:
            self._queue.remove(entry)
        except ValueError:
            return False
        return True

    def _entries(self) -> "list[Any]":
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class FairSharePolicy(QueuePolicy):
    """Round-robin over job owners, FIFO within an owner.

    Prevents one heavy user (e.g. the background load) from starving
    others — the fairness mechanism production batch systems apply
    across virtual organizations.
    """

    def __init__(self, engine: Engine) -> None:
        super().__init__(engine)
        self._per_owner: "OrderedDict[str, Deque[Any]]" = OrderedDict()
        self._count = 0

    def _owner_of(self, entry: Any) -> str:
        record = getattr(entry, "record", None)
        if record is not None:
            return record.description.owner
        return "anonymous"

    def _enqueue(self, entry: Any) -> None:
        owner = self._owner_of(entry)
        if owner not in self._per_owner:
            self._per_owner[owner] = deque()
        self._per_owner[owner].append(entry)
        self._count += 1

    def _dequeue(self) -> Any:
        # Take from the first owner in rotation order, then move that
        # owner to the back so the next pick favours someone else.
        owner, queue = next(iter(self._per_owner.items()))
        entry = queue.popleft()
        self._per_owner.move_to_end(owner)
        if not queue:
            del self._per_owner[owner]
        self._count -= 1
        return entry

    def _remove(self, entry: Any) -> bool:
        owner = self._owner_of(entry)
        queue = self._per_owner.get(owner)
        if queue is None:
            return False
        try:
            queue.remove(entry)
        except ValueError:
            return False
        if not queue:
            del self._per_owner[owner]
        self._count -= 1
        return True

    def _entries(self) -> "list[Any]":
        return [entry for queue in self._per_owner.values() for entry in queue]

    def __len__(self) -> int:
        return self._count
