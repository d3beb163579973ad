"""The instrumenting hot-path profiler: nested scopes, explicit cost.

Design
------
A :class:`Profiler` owns a tree of :class:`ScopeStats`.  Instrumented
code brackets a region with :meth:`Profiler.enter` / :meth:`exit` (or
the :meth:`scope` context manager outside the hot path); identical
names under the same parent share one node, so the tree stays small no
matter how many times a region runs.  Each node accounts:

``calls``
    how many times the region completed,
``cum``
    clock seconds inside the region including children,
``self``
    clock seconds minus the time attributed to child scopes — the
    number a rebuild must shrink.

The clock is injectable (:mod:`.clock`): the shared wall clock for
real measurements, a :class:`~.clock.TickClock` when the profile must
be byte-identical across identically seeded runs.

Toggleability is the contract that lets this live *permanently* inside
``Engine.step``, ``MoteurEnactor._execute`` and friends: every
instrumented object carries a ``profiler`` attribute that defaults to
``None``, and an instrumented region is one body bracketed by ::

    if profiler is not None:
        profiler.enter("component.region")
    try:
        ...
    finally:
        if profiler is not None:
            profiler.exit()

so there is one code path, not a profiled and an unprofiled twin, and
the hot path pays one attribute load plus two ``is not None`` tests
when profiling is off.  A null-object default was measured and
rejected: on ``Engine.step``/``schedule`` its no-op calls cost ~150 ns
per event (1 710/1 776/1 859 -> 1 871/2 083/1 840 ns medians on the
trajectory benchmark's ``timeout_ns_per_event`` driver).  The overhead
benchmark (``benchmarks/bench_profiler_overhead.py``) holds the
off-cost under 1% and the on-cost under 10%.

A :class:`Profile` is the immutable, serializable snapshot: scope tree
plus churn counters plus optional memory report, with a stable sorted
JSON encoding.  ``flamegraph.py`` renders it; ``attribution.py`` diffs
two of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.observability.profiling.churn import ChurnCounters, MemoryTracker
from repro.observability.profiling.clock import Clock, TickClock, wall_clock

__all__ = ["ScopeStats", "Profiler", "Profile", "ProfilerError", "install"]


class ProfilerError(RuntimeError):
    """Unbalanced enter/exit or a malformed profile file."""


class ScopeStats:
    """One node of the scope tree: a named region under one parent."""

    __slots__ = ("name", "calls", "cum", "self_time", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum = 0.0
        self.self_time = 0.0
        self.children: Dict[str, "ScopeStats"] = {}

    @property
    def component(self) -> str:
        """The accounting bucket: the scope name up to the first dot."""
        name = self.name
        dot = name.find(".")
        return name if dot < 0 else name[:dot]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "cum": self.cum,
            "self": self.self_time,
            "children": [
                self.children[name].to_dict() for name in sorted(self.children)
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScopeStats":
        try:
            node = cls(str(payload["name"]))
            node.calls = int(payload["calls"])
            node.cum = float(payload["cum"])
            node.self_time = float(payload["self"])
            children = payload["children"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfilerError(f"malformed scope node: {payload!r}") from exc
        for child in children:
            parsed = cls.from_dict(child)
            node.children[parsed.name] = parsed
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScopeStats {self.name!r} calls={self.calls} "
            f"cum={self.cum:.6f} self={self.self_time:.6f}>"
        )


class _Scope:
    """Context-manager shim over enter/exit (convenience, not hot path)."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "Profiler":
        self._profiler.enter(self._name)
        return self._profiler

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler.exit()


#: name of the synthetic root every profile hangs off
ROOT_NAME = "profile"


class Profiler:
    """Collects nested scope timings, call counts and churn counters.

    Single-threaded by design — the discrete-event engine it
    instruments is single-threaded, and keeping enter/exit lock-free
    is what keeps the on-cost inside the 10% budget.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        track_memory: bool = False,
        label: str = "",
    ) -> None:
        self.clock: Clock = clock if clock is not None else wall_clock
        self.label = label
        self.root = ScopeStats(ROOT_NAME)
        self.churn = ChurnCounters()
        self.memory = MemoryTracker(enabled=track_memory)
        #: frames: [node, start_reading, seconds_attributed_to_children]
        self._stack: List[List[Any]] = []
        self._current = self.root
        self.memory.start()

    # -- hot-path API --------------------------------------------------
    def enter(self, name: str) -> None:
        """Open scope *name* under the current scope."""
        parent = self._current
        node = parent.children.get(name)
        if node is None:
            node = ScopeStats(name)
            parent.children[name] = node
        self._stack.append([node, self.clock(), 0.0])
        self._current = node

    def exit(self) -> None:
        """Close the innermost open scope."""
        stack = self._stack
        if not stack:
            raise ProfilerError("exit() with no open scope")
        node, start, child_seconds = stack.pop()
        elapsed = self.clock() - start
        node.calls += 1
        node.cum += elapsed
        node.self_time += elapsed - child_seconds
        if stack:
            frame = stack[-1]
            frame[2] += elapsed
            self._current = frame[0]
        else:
            self._current = self.root

    def count(self, name: str, n: int = 1) -> None:
        """Bump churn counter *name* (see :mod:`.churn`)."""
        counts = self.churn.counts
        counts[name] = counts.get(name, 0) + n

    # -- convenience API ----------------------------------------------
    def scope(self, name: str) -> _Scope:
        """``with profiler.scope("engine.step"): ...``"""
        return _Scope(self, name)

    @property
    def depth(self) -> int:
        """Currently open scopes (0 between engine steps)."""
        return len(self._stack)

    def snapshot(self, label: Optional[str] = None) -> "Profile":
        """Freeze the current tree + counters into a :class:`Profile`.

        Open scopes (``depth > 0``) are not yet accounted; snapshot
        between engine steps — or after the run — for exact totals.
        """
        self.memory.stop()
        root = ScopeStats.from_dict(self.root.to_dict())  # deep copy
        root.cum = sum(child.cum for child in root.children.values())
        clock = self.clock
        if isinstance(clock, TickClock):
            clock_kind = "deterministic"
        elif clock is wall_clock:
            clock_kind = "wall"
        else:
            clock_kind = "custom"
        return Profile(
            label=label if label is not None else self.label,
            clock=clock_kind,
            root=root,
            counters=self.churn.snapshot(),
            memory=self.memory.report(),
        )

    def reset(self) -> None:
        """Drop all accounting (open scopes must be closed first)."""
        if self._stack:
            raise ProfilerError(f"reset() with {self.depth} open scope(s)")
        self.root = ScopeStats(ROOT_NAME)
        self._current = self.root
        self.churn.clear()


class Profile:
    """An immutable snapshot of one profiled run."""

    __slots__ = ("label", "clock", "root", "counters", "memory")

    #: bumped when the on-disk schema changes
    FORMAT = 1

    def __init__(
        self,
        label: str,
        clock: str,
        root: ScopeStats,
        counters: Dict[str, int],
        memory: Optional[Dict[str, int]] = None,
    ) -> None:
        self.label = label
        self.clock = clock
        self.root = root
        self.counters = dict(counters)
        self.memory = dict(memory) if memory is not None else None

    # -- queries -------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Root cumulative seconds (== sum of every scope's self time)."""
        return self.root.cum

    def walk(self) -> Iterator[Tuple[Tuple[str, ...], ScopeStats]]:
        """Yield ``(path, node)`` depth-first, children in name order.

        The path excludes the synthetic root.
        """
        stack: List[Tuple[Tuple[str, ...], ScopeStats]] = [
            ((name,), self.root.children[name])
            for name in sorted(self.root.children, reverse=True)
        ]
        while stack:
            path, node = stack.pop()
            yield path, node
            for name in sorted(node.children, reverse=True):
                stack.append((path + (name,), node.children[name]))

    def by_component(self) -> Dict[str, Dict[str, float]]:
        """Self seconds + completed calls aggregated per component.

        The component is the scope name's first dot-segment (``engine``,
        ``enactor``, ``grid``, ``broker``, ``cache``, ``bus``) — the
        granularity `compare-runs` attribution reasons about.
        """
        table: Dict[str, Dict[str, float]] = {}
        for _path, node in self.walk():
            row = table.setdefault(node.component, {"self": 0.0, "calls": 0})
            row["self"] += node.self_time
            row["calls"] += node.calls
        return {name: table[name] for name in sorted(table)}

    def hottest(self, limit: int = 15) -> List[Tuple[Tuple[str, ...], ScopeStats]]:
        """Scopes by descending self time (path ties broken by name)."""
        ranked = sorted(
            self.walk(), key=lambda item: (-item[1].self_time, item[0])
        )
        return ranked[:limit]

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "format": self.FORMAT,
            "label": self.label,
            "clock": self.clock,
            "root": self.root.to_dict(),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        if self.memory is not None:
            payload["memory"] = {k: self.memory[k] for k in sorted(self.memory)}
        return payload

    def to_json(self) -> str:
        """Canonical encoding: sorted keys, no whitespace drift.

        With a deterministic clock this string is byte-identical across
        identically seeded runs — the property CI asserts.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Profile":
        if not isinstance(payload, dict) or "root" not in payload:
            raise ProfilerError(f"not a profile payload: {type(payload).__name__}")
        fmt = payload.get("format")
        if fmt != cls.FORMAT:
            raise ProfilerError(f"unsupported profile format {fmt!r}")
        memory = payload.get("memory")
        return cls(
            label=str(payload.get("label", "")),
            clock=str(payload.get("clock", "wall")),
            root=ScopeStats.from_dict(payload["root"]),
            counters={
                str(k): int(v) for k, v in dict(payload.get("counters", {})).items()
            },
            memory={str(k): int(v) for k, v in memory.items()}
            if isinstance(memory, dict)
            else None,
        )

    def save(self, path: "str | Path") -> Path:
        """Write the canonical JSON encoding to *path*."""
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: "str | Path") -> "Profile":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ProfilerError(f"cannot read profile {path}: {exc}") from exc
        return cls.from_dict(payload)


def install(profiler: Optional[Profiler], *targets: Any) -> Optional[Profiler]:
    """Point every target's ``profiler`` attribute at *profiler*.

    Targets are the instrumented objects — engine, grid, broker,
    enactor, bus.  ``None`` targets are skipped, so callers can pass
    optional pieces unconditionally::

        install(prof, engine, grid, grid and grid.broker, bus)

    Passing ``profiler=None`` uninstalls (restores the zero-cost path).
    """
    for target in targets:
        if target is not None:
            target.profiler = profiler
    return profiler
