"""The hot-path profiler: one ``sys.setprofile`` hook, nested scopes.

A :class:`Profiler` owns a tree of :class:`ScopeStats` keyed by call
path.  Each node accounts ``calls``, ``cum`` (clock seconds including
children) and ``self`` (``cum`` minus the children's time — the number
a rebuild must shrink).  The clock is injectable (:mod:`.clock`): the
wall clock for real timings, a :class:`~.clock.TickClock` when the
profile must be byte-identical across identically seeded runs.

No code under ``repro`` knows it is profiled.  :meth:`Profiler.active`
installs one ``sys.setprofile`` hook for a ``with`` block and restores
the previous hook on the way out; the seams that use it are
``BronzeStandardApplication.enact(profiler=...)`` and each
``EnactmentService.tick()``.  A ``call`` event opens a scope and a
``return`` event closes it, but only when its frame is the one on top
of the stack, so starting mid-stack is safe.  A generator resumption
is its own call/return pair, so a resumed process body is charged to
its own module rather than to the ``Engine.step`` that resumed it.

A frame's component is the longest prefix of its module name in
:data:`COMPONENTS`, and its scope is named
``<component>.<module-tail>:<qualname>`` (``engine.sim.engine:
Engine.step``); :attr:`ScopeStats.component` is the first dot-segment.
Frames outside ``repro`` (stdlib, numpy, C calls) and this package
open no scope and are charged to their caller: a ``heapq.heappush``
inside ``Engine.schedule`` is the engine's cost, not a component.

Cost: off, nothing — no hook is installed and no instrumented class
carries a profiler.  On, every Python and C call pays a Python-level
callback: the Bronze Standard (SP+DP, seed 42, tick clock, best of 5,
Python 3.11.7 on a 2-vCPU Xeon VM) takes 10.8 ms unprofiled and
39.8 ms profiled at 4 pairs, 29.3 ms and 111.4 ms at 12 pairs — about
4x, where the in-code hooks this replaced cost +4-14%.  That is the
accepted price of a diagnostic run that sees every layer.

A :class:`Profile` is the immutable, serializable snapshot (scope tree,
stable sorted JSON); ``flamegraph.py``
renders it and ``attribution.py`` diffs two of them.
"""

from __future__ import annotations

import gc
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.observability.profiling.clock import Clock, TickClock, wall_clock

__all__ = ["ScopeStats", "Profiler", "Profile", "ProfilerError", "COMPONENTS"]


class ProfilerError(RuntimeError):
    """Unbalanced enter/exit or a malformed profile file."""


#: module prefix -> component; the longest matching prefix wins and
#: ``None`` means "open no scope, charge the caller"
COMPONENTS: Dict[str, Optional[str]] = {
    "repro.sim": "engine",
    "repro.core": "enactor",
    "repro.services": "enactor",
    "repro.apps": "enactor",
    "repro.grid": "grid",
    "repro.grid.broker": "broker",
    "repro.cache": "cache",
    "repro.observability": "bus",
    "repro.observability.profiling": None,
    "repro.service": "service",
    "repro.util": "util",
}

#: code object -> scope name (None: charged to the caller)
_SCOPE_NAMES: Dict[Any, Optional[str]] = {}


def _scope_name(frame) -> Optional[str]:
    """``<component>.<module-tail>:<qualname>`` for *frame*'s code."""
    module = frame.f_globals.get("__name__") or ""
    prefix = module
    while prefix and prefix not in COMPONENTS:
        prefix = prefix.rpartition(".")[0]
    component = COMPONENTS.get(prefix)
    if component is None:
        return None
    code = frame.f_code
    qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
    return f"{component}.{module[len('repro.'):]}:{qualname}"


class ScopeStats:
    """One node of the scope tree: a named scope under one parent."""

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


#: name of the synthetic root every profile hangs off
ROOT_NAME = "profile"


class Profiler:
    """Collects nested scope timings and call counts.

    :meth:`active` feeds the tree from the ``sys.setprofile`` hook;
    :meth:`enter` / :meth:`exit` are the same accounting driven by
    hand.  One open stack per profiler: the hook is per-thread, and
    the service serializes its ticks under a lock.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        label: str = "",
    ) -> None:
        self.clock: Clock = clock if clock is not None else wall_clock
        # A tick clock is read in whole quanta and scaled once, at
        # snapshot: integer sums do not depend on the order calls came
        # in, so the profile bytes do not either.
        if isinstance(self.clock, TickClock):
            self._read, self._unit = self.clock.tick, self.clock.quantum
        else:
            self._read, self._unit = self.clock, 1.0
        self.label = label
        self.root = ScopeStats(ROOT_NAME)
        #: open scopes: [node, start_reading, child_time, frame]
        self._stack: List[List[Any]] = []

    def enter(self, name: str, frame: Any = None) -> None:
        """Open scope *name* under the current scope."""
        stack = self._stack
        parent = stack[-1][0] if stack else self.root
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = ScopeStats(name)
        stack.append([node, self._read(), 0, frame])

    def exit(self) -> None:
        """Close the innermost open scope."""
        stack = self._stack
        if not stack:
            raise ProfilerError("exit() with no open scope")
        node, start, child_time, _frame = stack.pop()
        elapsed = self._read() - start
        node.calls += 1
        node.cum += elapsed
        node.self_time += elapsed - child_time
        if stack:
            stack[-1][2] += elapsed

    def _hook(self, frame, event: str, _arg) -> None:
        """The ``sys.setprofile`` callback (see the module docstring)."""
        if event == "call":
            code = frame.f_code
            try:
                name = _SCOPE_NAMES[code]
            except KeyError:
                name = _SCOPE_NAMES[code] = _scope_name(frame)
            if name is not None:
                self.enter(name, frame)
        elif event == "return":
            stack = self._stack
            if stack and stack[-1][3] is frame:
                self.exit()

    @contextmanager
    def active(self) -> Iterator["Profiler"]:
        """Profile every ``repro`` call made on this thread inside the block.

        The previous ``sys.getprofile()`` hook is restored on the way
        out, exception or not, and scopes still open then (a block left
        from inside a suspended generator) are closed at that moment.
        The cyclic garbage collector is paused inside the block: a
        collection finalizes suspended generators of *other* runs, and
        their ``close()`` frames would land in whichever scope happened
        to allocate — a different one from run to run.
        """
        depth = len(self._stack)
        previous = sys.getprofile()
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(self._hook)
        try:
            yield self
        finally:
            sys.setprofile(previous)
            if collecting:
                gc.enable()
            while len(self._stack) > depth:
                self.exit()

    @contextmanager
    def scope(self, name: str) -> Iterator["Profiler"]:
        """``with profiler.scope(name): ...`` — enter/exit by hand."""
        self.enter(name)
        try:
            yield self
        finally:
            self.exit()

    @property
    def depth(self) -> int:
        """Currently open scopes (0 outside a profiled block)."""
        return len(self._stack)

    def snapshot(self, label: Optional[str] = None) -> "Profile":
        """Freeze the current tree into a :class:`Profile`.

        Open scopes (``depth > 0``) are not yet accounted; snapshot
        after the profiled block for exact totals.
        """
        root = ScopeStats.from_dict(self.root.to_dict())  # deep copy
        if self._unit != 1.0:
            nodes = list(root.children.values())
            while nodes:
                node = nodes.pop()
                node.cum *= self._unit
                node.self_time *= self._unit
                nodes.extend(node.children.values())
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
        )


class Profile:
    """An immutable snapshot of one profiled run."""

    __slots__ = ("label", "clock", "root")

    #: bumped when the on-disk schema changes
    FORMAT = 2

    def __init__(self, label: str, clock: str, root: ScopeStats) -> None:
        self.label = label
        self.clock = clock
        self.root = root

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
        ``enactor``, ``grid``, ``broker``, ``cache``, ``bus``, ...) —
        the granularity `compare-runs` attribution reasons about.
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
        return {
            "format": self.FORMAT,
            "label": self.label,
            "clock": self.clock,
            "root": self.root.to_dict(),
        }

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
        return cls(
            label=str(payload.get("label", "")),
            clock=str(payload.get("clock", "wall")),
            root=ScopeStats.from_dict(payload["root"]),
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
