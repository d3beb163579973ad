"""Data tokens: what flows along workflow links at enactment time.

A :class:`DataToken` pairs the payload
(:class:`~repro.services.base.GridData`) with its provenance
(:class:`~repro.core.provenance.HistoryTree`).  The token is the unit
the iteration strategies match on and the unit the execution trace
labels (``D0``, ``D1``, ...).

``NO_DATA`` is the sentinel a service program returns on an output port
to emit *nothing* there.  It is what makes conditional outputs — and
therefore the Figure 2 optimization loop, whose ``P3`` "produces its
result on one of its two output ports" — expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.provenance import HistoryTree
from repro.services.base import GridData
from repro.util import codec

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.core.failures import InvocationFailure

__all__ = ["DataToken", "NO_DATA", "NoData"]


@codec.register("NoData")
class NoData:
    """Singleton sentinel: 'this output port emits nothing this time'."""

    _instance = None

    def __new__(cls) -> "NoData":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NO_DATA"

    def __reduce__(self):
        return (NoData, ())


NO_DATA = NoData()


@dataclass(frozen=True)
class DataToken:
    """One datum on one link: payload + provenance.

    Under best-effort failure containment, a token may instead be an
    *error token*: ``failure`` names the root
    :class:`~repro.core.failures.InvocationFailure` it descends from,
    the payload is empty, and every downstream invocation fed by it is
    skipped rather than invoked — the poison stays inside one lineage.
    """

    data: GridData
    history: HistoryTree
    failure: "Optional[InvocationFailure]" = None

    @property
    def poisoned(self) -> bool:
        """True for error tokens (a failed ancestor, not a data item)."""
        return self.failure is not None

    @property
    def label(self) -> str:
        """The paper-style item label (delegates to the history tree)."""
        return self.history.label()

    @property
    def value(self) -> object:
        """Shortcut to the payload value."""
        return self.data.value

    def __repr__(self) -> str:
        if self.failure is not None:
            return f"<DataToken {self.label} poisoned by {self.failure.processor}>"
        return f"<DataToken {self.label}>"
