"""Crash-tolerant append-only line files.

The line discipline the enactment journal (``repro.core.journal``) and
the result cache's ``FileStore`` share.  A log is a file of
newline-terminated lines:

* :func:`open_log` opens it for appending and positional reads, creating
  it (and its directory) if needed.  If the file ends mid-line — a crash
  cut the last write short — it ends that fragment with ``"\\n"`` first,
  so a new line is never glued onto a torn one; the fragment then reads
  as one line that does not parse.
* :func:`append_line` hands one line to the OS in one ``write`` on the
  ``O_APPEND`` handle: when it returns, every other reader sees the line,
  and concurrent writers never interleave their bytes.  No ``fsync``:
  durability past an OS crash is the caller's choice.
* :func:`complete_lines` yields the complete lines from an offset and
  stops before a torn tail, so a reader never sees half a line (unless
  it asks for the tail and can tell a whole one from a torn one).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Iterator, Tuple

__all__ = ["open_log", "append_line", "complete_lines"]


def open_log(path: "str | Path") -> BinaryIO:
    """An unbuffered append handle on *path*, its torn tail (if any) ended."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a+b", buffering=0)
    try:
        fd = handle.fileno()
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            append_line(handle, b"")
    except BaseException:
        handle.close()
        raise
    return handle


def append_line(handle: BinaryIO, line: bytes) -> int:
    """Append *line* plus ``"\\n"``; return the offset just past it."""
    data = memoryview(line + b"\n")
    while data:
        data = data[handle.write(data):]
    return handle.tell()


def complete_lines(
    handle: BinaryIO, start: int = 0, *, tail: bool = False
) -> Iterator[Tuple[int, bytes]]:
    """``(offset, line)`` for each complete line at or after *start*.

    The line comes without its ``"\\n"``; a final fragment with no
    ``"\\n"`` is yielded last only with *tail* — for a reader whose lines
    are self-delimiting, so a whole line that lost just its newline still
    counts.  Reads through the file descriptor at explicit offsets, so the
    handle's own position never moves.
    """
    fd = handle.fileno()
    size = os.fstat(fd).st_size
    data = os.pread(fd, size - start, start) if size > start else b""
    begin = 0
    while True:
        end = data.find(b"\n", begin)
        if end < 0:
            if tail and begin < len(data):
                yield start + begin, data[begin:]
            return
        yield start + begin, data[begin:end]
        begin = end + 1
