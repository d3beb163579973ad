"""Outside-in timing shim for the traced pass.

Everything here lives in the benchmark: the program under ``src/`` is not
edited.  A :class:`Tracer` replaces public callables (class attributes,
one module-level function) with shims that keep a call stack, so each
callable's *self* time is its span minus the spans of the shimmed
callables it called.  Injectable collaborators (``Subscriber``,
``StateStore``, ``ResultStore``) are wrapped in a :class:`TimedProxy`
instead of being patched.

Spans are aggregated per callable as they close (calls, self, cumulative)
rather than stored one by one: a 1 000-pair pass closes about a million of
them, and keeping each would cost more than the layers being measured.
Only ``keep_samples`` callables (the scheduler tick) keep every duration.

Self times tile the traced pass by construction: the root frame opened by
:meth:`Tracer.begin` absorbs whatever no shim covers.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

ROOT = "trace.root"


class Tracer:
    """Per-callable call counts and self/cumulative nanoseconds."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT]
        self.calls: List[int] = [0]
        self.self_ns: List[int] = [0]
        self.cum_ns: List[int] = [0]
        #: name -> every span duration (ns), for ``keep_samples`` callables
        self.samples: Dict[str, List[int]] = {}
        #: open frames; a frame is ``[nanoseconds spent in shimmed callees]``
        self._stack: List[List[int]] = []
        self._root_start = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------
    def register(self, name: str) -> int:
        """Index of *name*, adding it at zero calls if new."""
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.cum_ns.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn: Callable, keep_samples: bool = False) -> Callable:
        """A shim around *fn* accounted under *name*.

        Outside :meth:`begin`/:meth:`end` the shim is a plain call, so
        set-up and checks that touch a shimmed callable are not traced.
        """
        idx = self.register(name)
        stack, calls, self_ns, cum_ns = self._stack, self.calls, self.self_ns, self.cum_ns
        samples = self.samples.setdefault(name, []) if keep_samples else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[idx] += 1
                cum_ns[idx] += elapsed
                self_ns[idx] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return shim

    def patch(self, owner: Any, attr: str, name: str, keep_samples: bool = False) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a shim."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep_samples))

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` with *replacement*, restored by :meth:`restore`."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- the traced region ------------------------------------------------
    def begin(self) -> None:
        """Open the root frame: shims record from here on."""
        self._stack.append([0])
        self._root_start = time.perf_counter_ns()

    def end(self) -> None:
        """Close the root frame."""
        elapsed = time.perf_counter_ns() - self._root_start
        frame = self._stack.pop()
        self.calls[0] += 1
        self.cum_ns[0] += elapsed
        self.self_ns[0] += elapsed - frame[0]

    # -- results ----------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, self_s, cum_s}`` for every registered callable."""
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_ns[i] / 1e9,
                "cum_s": self.cum_ns[i] / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def total_self_s(self) -> float:
        """Sum of every self time; equals the traced wall when spans tile."""
        return sum(self.self_ns) / 1e9


class TimedProxy:
    """Stand-in for an injected collaborator that times the named methods.

    Every other attribute (reads and writes) goes to the target, so the
    program cannot tell the proxy from the object it wraps.
    """

    def __init__(self, target: Any, tracer: Tracer, prefix: str, methods: Iterable[str]) -> None:
        object.__setattr__(self, "_target", target)
        for method in methods:
            shim = tracer.wrap(f"{prefix}.{method}", getattr(target, method))
            object.__setattr__(self, method, shim)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)

    def __len__(self) -> int:
        return len(self._target)
