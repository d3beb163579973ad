"""The one JSONL codec behind the span, alert and audit streams.

Each record type keeps its own ``to_dict`` / ``from_dict`` and its own
error class; this module owns the line discipline they share: one
sorted-key JSON object per line on the way out, and on the way back
blank lines skipped and every error naming the line it came from.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Type, TypeVar

__all__ = ["records_to_jsonl", "records_from_jsonl"]

_R = TypeVar("_R")


def records_to_jsonl(records: Iterable[Any]) -> str:
    """Serialize records (anything with ``to_dict``) one per line."""
    return "\n".join(json.dumps(record.to_dict(), sort_keys=True) for record in records)


def records_from_jsonl(
    text: "str | Iterable[str]",
    from_dict: Callable[[Dict[str, Any]], _R],
    error: Type[Exception],
    what: str,
) -> List[_R]:
    """Parse a JSONL stream with *from_dict* (blank lines ignored).

    Accepts either one string of newline-separated records or any
    iterable of lines (an open file works directly).  Invalid JSON, a
    non-object line, or an *error* raised by *from_dict* becomes an
    *error* that names the line number and says it is not *what*.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    records: List[_R] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"line {lineno} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise error(f"line {lineno} is not {what}: {line[:80]!r}")
        try:
            records.append(from_dict(payload))
        except error as exc:
            raise error(f"line {lineno} is not {what}: {exc}") from None
    return records
