"""Oracle for the interval sweeps every trace view shares.

``step_function`` / ``peak`` and ``busy_seconds`` are the only interval
sweeps in the tree (execution traces and CE timelines both call them),
so they are checked here against brute force over random interval sets,
zero-length intervals included.  Endpoints are small integers so every
sum is exact in floating point.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.timeline import busy_seconds, peak, step_function

intervals = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 12)).map(
        lambda pair: (float(pair[0]), float(pair[0] + pair[1]))
    ),
    max_size=12,
)


def brute_peak(spans):
    """Most intervals covering one instant: ``[start, end)`` for an
    interval, its own timestamp for an instant."""
    def covering(t):
        return sum(
            1 for start, end in spans if (start == end == t) or (start <= t < end)
        )

    return max((covering(t) for span in spans for t in span), default=0)


def brute_union(spans):
    """Length of the union, one elementary segment at a time."""
    points = sorted({t for span in spans for t in span})
    return sum(
        right - left
        for left, right in zip(points, points[1:])
        if any(start <= left and right <= end for start, end in spans)
    )


@settings(max_examples=200, deadline=None)
@given(intervals)
def test_peak_of_step_function_is_max_overlap(spans):
    assert peak(step_function(spans)) == brute_peak(spans)


@settings(max_examples=200, deadline=None)
@given(intervals)
def test_busy_seconds_is_measure_of_union(spans):
    assert busy_seconds(spans) == brute_union(spans)
