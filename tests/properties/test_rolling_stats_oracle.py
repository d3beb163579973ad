"""Differential oracle: the rolling window's incremental statistics.

:class:`~repro.observability.health.RollingSample` keeps a sorted twin
of its window (bisect on insert and evict), reads the median from it
and selects the MAD from the two sorted deviation runs instead of
sorting the deviations.  The reference below is the sort-everything
derivation it replaced, verbatim: after every ``add`` the window's
statistics must equal it bit for bit — ties, constant windows and
evictions included — and so must :func:`robust_stats` of the window.
"""

from __future__ import annotations

import struct
from dataclasses import astuple

from hypothesis import given
from hypothesis import strategies as st

from repro.observability.health import (
    MAD_SCALE,
    MEAN_AD_SCALE,
    RobustStats,
    RollingSample,
    robust_stats,
)


# -- the reference: sort the window, sort the deviations -----------------------
def _median(sorted_values):
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return 0.5 * (sorted_values[mid - 1] + sorted_values[mid])


def reference_stats(values) -> RobustStats:
    ordered = sorted(values)
    med = _median(ordered)
    deviations = sorted(abs(v - med) for v in ordered)
    mad = _median(deviations)
    if mad > 0.0:
        scale = MAD_SCALE * mad
    else:
        mean_ad = sum(deviations) / len(deviations)
        scale = MEAN_AD_SCALE * mean_ad
    return RobustStats(count=len(ordered), median=med, mad=mad, scale=scale)


def bits(stats: RobustStats) -> tuple:
    """The statistics as exact bit patterns (``-0.0`` differs from ``0.0``)."""
    return tuple(
        struct.pack("<d", v) if isinstance(v, float) else v for v in astuple(stats)
    )


# few distinct values make ties, equal-value evictions and MAD = 0 common
tied = st.sampled_from([0.0, 1.0, 2.5, 2.5, 7.0, 100.0])
spread = st.floats(0.0, 1e4, allow_nan=False)
streams = st.one_of(
    st.lists(tied, min_size=1, max_size=60),
    st.lists(spread, min_size=1, max_size=60),
    st.lists(st.one_of(tied, spread), min_size=1, max_size=60),
    st.tuples(spread, st.integers(1, 30)).map(lambda vn: [vn[0]] * vn[1]),
)


class TestRollingSampleOracle:
    @given(streams, st.integers(1, 12))
    def test_every_window_matches_the_sorting_reference(self, values, maxlen):
        sample = RollingSample(maxlen=maxlen)
        for value in values:
            sample.add(value)
            window = sample.values()
            expected = reference_stats(window)
            assert bits(sample.stats()) == bits(expected)
            assert bits(robust_stats(window)) == bits(expected)
            assert struct.pack("<d", sample.median()) == struct.pack("<d", expected.median)

    @given(streams)
    def test_unbounded_window_matches(self, values):
        sample = RollingSample(maxlen=len(values))
        for value in values:
            sample.add(value)
        assert bits(sample.stats()) == bits(reference_stats(values))
