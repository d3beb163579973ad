"""Differential oracle: the gated CE health check against the ungated one.

``RunMonitor._check_ce`` rebuilds a CE's full health summary only when
``FleetHealth.can_flag`` says its counters could turn a not-yet-alerted
flag true; the reference (``tests/tools/health_gate_reference.py``) is
the check it replaced, which rebuilds the summary on every phase and
fault close.  Two monitors — one gated, one ungated — fold the same
stream of ``job.queue`` / ``job.run`` / ``job.stage_in`` / ``job.fault``
spans on 1–4 CEs, under rules whose thresholds sit where the counters
land exactly on them (``min_samples`` of 1–4, fractions and rates of
1/4, 1/3, 1/2, 2/3 and 1), with run durations and times-to-failure that
put a CE's median time-to-failure on both sides of the fleet's run
median.  Their alert lists must be equal field by field, sequence
included, and so must their health tables.

Hand mutants of the gate run against this file, all killed:

* ``>=`` -> ``>`` on the straggler-fraction threshold;
* ``>=`` -> ``>`` on the fault-rate threshold;
* a gate that checks only the straggler predicate;
* a gate that tests the blackhole ``min_samples`` against completions
  instead of attempts.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.alerts import AlertRules
from repro.observability.monitor import RunMonitor
from repro.observability.spans import Span
from tests.tools.health_gate_reference import use_reference_check

CES = ("ce0", "ce1", "ce2", "ce3")
FRACTIONS = (0.25, 1 / 3, 0.5, 2 / 3, 1.0)

#: (phase, ce index, job id, group, seconds): one closed span
phases = st.tuples(
    st.sampled_from(["job.queue", "job.run", "job.run", "job.stage_in"]),
    st.integers(0, 3),
    st.integers(0, 12),
    st.sampled_from(["svcA", "svcB", None]),
    st.sampled_from([1.0, 2.0, 10.0, 10.0, 11.0, 40.0, 400.0]),
)
#: ("job.fault", ce index, seconds to failure)
faults = st.tuples(
    st.just("job.fault"),
    st.integers(0, 3),
    st.sampled_from([0.5, 3.0, 5.0, 20.0, 200.0]),
)

rules = st.builds(
    AlertRules,
    straggler_z=st.sampled_from([0.5, 1.0, 3.5]),
    ce_straggler_fraction=st.sampled_from(FRACTIONS),
    blackhole_fault_rate=st.sampled_from(FRACTIONS),
    blackhole_ttf_factor=st.sampled_from([0.5, 1.0]),
    blackhole_ttf_floor=st.sampled_from([4.0, 120.0]),
    min_samples=st.integers(1, 4),
)


def spans_of(events, n_ces):
    """Closed spans in completion order, one simulated second apart."""
    spans = []
    for index, event in enumerate(events):
        ce = CES[event[1] % n_ces]
        if event[0] == "job.fault":
            seconds = event[2]
            attributes = {"ce": ce}
        else:
            _, _, job_id, group, seconds = event
            attributes = {"ce": ce, "job_id": job_id}
            if group is not None:
                attributes["job_name"] = f"{group}#{job_id}"
        end = 1000.0 + index
        spans.append(
            Span(
                name=event[0],
                category="grid",
                span_id=f"s{index}",
                trace_id="",
                start=end - seconds,
                end=end,
                attributes=attributes,
            )
        )
    return spans


def both(spans, rule):
    """(gated, ungated) monitors after folding *spans*."""
    gated = RunMonitor(rules=rule).replay(spans)
    ungated = use_reference_check(RunMonitor(rules=rule)).replay(spans)
    return gated, ungated


def assert_same(gated, ungated):
    assert [a.to_dict() for a in gated.alerts] == [a.to_dict() for a in ungated.alerts]
    assert [dataclasses.asdict(h) for h in gated.health_table()] == [
        dataclasses.asdict(h) for h in ungated.health_table()
    ]


def ce_alerts(monitor, kind):
    return [(a.time, a.subject) for a in monitor.alerts if a.kind == kind and a.scope == "ce"]


@settings(max_examples=300, deadline=None)
@given(
    rule=rules,
    n_ces=st.integers(1, 4),
    events=st.lists(st.one_of(phases, faults), max_size=40),
)
def test_gated_check_raises_exactly_the_ungated_alerts(rule, n_ces, events):
    assert_same(*both(spans_of(events, n_ces), rule))


def run(ce, job, seconds, group="svcA"):
    return ("job.run", ce, job, group, seconds)


def fault(ce, seconds):
    return ("job.fault", ce, seconds)


#: streams whose last close puts a counter exactly on its threshold
#: (or past ``min_samples`` by attempts alone), and the CE alert the
#: ungated check raises on that very close
BOUNDARIES = {
    # 2 of 4 completions are stragglers: fraction == 0.5
    "straggler fraction at its threshold": (
        AlertRules(min_samples=2, straggler_z=1.0, ce_straggler_fraction=0.5),
        [run(0, 1, 10.0), run(0, 2, 10.0), run(0, 3, 400.0), run(0, 4, 400.0)],
        ("straggler", 1003.0),
    ),
    # one fault in two attempts: rate == 0.5, and fast (1s <= 0.5 x 10s)
    "fault rate at its threshold": (
        AlertRules(min_samples=2, blackhole_fault_rate=0.5),
        [run(0, 1, 10.0), fault(0, 1.0)],
        ("blackhole", 1001.0),
    ),
    # two attempts, no completion: min_samples met by attempts only
    "blackhole samples are attempts, not completions": (
        AlertRules(min_samples=2, blackhole_fault_rate=1.0),
        [fault(0, 3.0), fault(0, 3.0)],
        ("blackhole", 1001.0),
    ),
    # the CE's median time-to-failure crosses below half the fleet's
    # run median only once a slow run elsewhere lifts that median
    "time to failure crossing the fleet median": (
        AlertRules(min_samples=2, blackhole_fault_rate=0.5),
        [run(0, 1, 2.0), fault(0, 5.0), run(1, 2, 40.0), run(1, 3, 40.0), fault(0, 5.0)],
        ("blackhole", 1004.0),
    ),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_streams(name):
    rule, events, (kind, time) = BOUNDARIES[name]
    gated, ungated = both(spans_of(events, 4), rule)
    assert ce_alerts(ungated, kind) == [(time, "ce0")]
    assert_same(gated, ungated)
