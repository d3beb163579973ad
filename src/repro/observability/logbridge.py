"""The CLI's bridge to stdlib :mod:`logging`.

:func:`cli_logger` is the CLI's user-facing output channel: a logger
whose handler writes bare messages to the *current* ``sys.stdout``
(resolved at emit time, so pytest's capture and shell redirection both
work).  Routing the CLI's diagnostics through here keeps one code path
for "text a human reads" while leaving library users' logging untouched.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["cli_logger"]


class _CurrentStdoutHandler(logging.Handler):
    """Writes bare messages to whatever ``sys.stdout`` is *right now*.

    A plain ``StreamHandler(sys.stdout)`` captures the stream object at
    construction time, which breaks under pytest's ``capsys`` and any
    later redirection; resolving the stream per record keeps the CLI's
    behaviour identical to the ``print`` calls it replaces.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stdout.write(self.format(record) + "\n")
        except Exception:  # pragma: no cover - mirrors logging's own policy
            self.handleError(record)


def cli_logger(name: str = "repro.cli") -> logging.Logger:
    """The user-facing CLI channel: INFO to stdout, message only.

    Idempotent — repeated calls reuse the configured logger — and
    isolated: ``propagate`` is off so CLI output never duplicates into
    an application's root handlers.
    """
    logger = logging.getLogger(name)
    if not any(isinstance(h, _CurrentStdoutHandler) for h in logger.handlers):
        handler = _CurrentStdoutHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
    return logger
