"""Shared low-level utilities: RNG streams, units, statistics.

These helpers are deliberately free of any simulation or workflow
concepts so that every other subpackage can depend on them without
cycles.
"""

from repro.util.rng import RandomStreams
from repro.util.stats import LinearFit, linear_fit
from repro.util.units import (
    GIBIBYTE,
    HOUR,
    KIBIBYTE,
    MEBIBYTE,
    MINUTE,
    SECOND,
    format_duration,
    format_size,
)

__all__ = [
    "RandomStreams",
    "LinearFit",
    "linear_fit",
    "SECOND",
    "MINUTE",
    "HOUR",
    "KIBIBYTE",
    "MEBIBYTE",
    "GIBIBYTE",
    "format_duration",
    "format_size",
]
