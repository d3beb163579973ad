"""Tests for live model-drift reporting against equations (1)-(4)."""

import pytest

from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.trace import ExecutionTrace, TraceEvent
from repro.model.makespan import makespans
from repro.observability.drift import (
    DriftError,
    drift_report,
    drift_report_from_trace,
    overhead_by_job_from_spans,
    policy_key,
    time_matrix,
)
from repro.observability.spans import Span
from repro.services.base import LocalService
from repro.workflow.patterns import chain_workflow

# T[i][j]: service i, data set j — deliberately non-constant so the
# four policy equations give four different makespans.
TIMES = [
    [4.0, 1.0, 3.0],
    [2.0, 5.0, 1.0],
]

POLICIES = [
    ("NOP", OptimizationConfig.nop),
    ("DP", OptimizationConfig.dp),
    ("SP", OptimizationConfig.sp),
    ("SP+DP", OptimizationConfig.sp_dp),
]


def enact(engine, config):
    def factory(name, inputs, outputs):
        index = int(name[1:]) - 1

        def duration(inputs_dict):
            return float(TIMES[index][inputs_dict["x"].value])

        return LocalService(
            engine, name, inputs, outputs,
            function=lambda x: {"y": x}, duration=duration,
        )

    workflow = chain_workflow(factory, len(TIMES))
    return MoteurEnactor(engine, workflow, config).run(
        {"input": list(range(len(TIMES[0])))}
    )


class TestPolicyKey:
    def test_all_four(self):
        assert policy_key(OptimizationConfig.nop()) == "NOP"
        assert policy_key(OptimizationConfig.dp()) == "DP"
        assert policy_key(OptimizationConfig.sp()) == "SP"
        assert policy_key(OptimizationConfig.sp_dp()) == "SP+DP"

    def test_grouping_does_not_change_the_equation(self):
        assert policy_key(OptimizationConfig.sp_dp_jg()) == "SP+DP"
        assert policy_key(OptimizationConfig.jg()) == "NOP"


class TestTimeMatrix:
    def test_rebuilds_T_from_trace(self, engine):
        result = enact(engine, OptimizationConfig.sp_dp())
        T, names, rows = time_matrix(result.trace)
        assert names == ["P1", "P2"]
        assert T.tolist() == TIMES

    def test_cached_and_synchronization_events_excluded(self):
        trace = ExecutionTrace()
        trace.add(TraceEvent("P", "D0", 0.0, 2.0))
        trace.add(TraceEvent("P", "D1", 2.0, 2.0, kind="cached"))
        T, names, _ = time_matrix(trace)
        assert T.shape == (1, 1)

    def test_all_cached_trace_rejected(self):
        trace = ExecutionTrace()
        trace.add(TraceEvent("P", "D0", 0.0, 0.0, kind="cached"))
        with pytest.raises(DriftError, match="no executed invocations"):
            time_matrix(trace)

    def test_uneven_streams_rejected_without_selection(self):
        trace = ExecutionTrace()
        trace.add(TraceEvent("A", "D0", 0.0, 1.0))
        trace.add(TraceEvent("B", "D0", 1.0, 2.0))
        trace.add(TraceEvent("B", "D1", 2.0, 3.0))
        with pytest.raises(DriftError, match="different stream lengths"):
            time_matrix(trace)
        T, names, _ = time_matrix(trace, processors=["B"])
        assert names == ["B"]
        assert T.shape == (1, 2)

    def test_unknown_processor_rejected(self, engine):
        result = enact(engine, OptimizationConfig.nop())
        with pytest.raises(DriftError, match="never executed"):
            time_matrix(result.trace, processors=["P1", "ghost"])


class TestDriftReport:
    @pytest.mark.parametrize("label,config", POLICIES, ids=[p[0] for p in POLICIES])
    def test_exact_on_ideal_enactment(self, engine, label, config):
        # Simulator == model on overhead-free services: equations (1)-(4)
        # must predict the observed makespan exactly, for every policy.
        report = drift_report(enact(engine, config()))
        assert report.policy == label
        assert report.observed_makespan == pytest.approx(makespans(TIMES)[label])
        assert report.drift == pytest.approx(0.0)
        assert report.relative_error == pytest.approx(0.0)
        assert report.relative_error <= 1e-9

    def test_all_four_predictions_on_one_matrix(self, engine):
        report = drift_report(enact(engine, OptimizationConfig.nop()))
        expected = makespans(TIMES)
        for label, value in expected.items():
            assert report.predictions[label] == pytest.approx(value)
        assert report.speedup_vs_nop == pytest.approx(1.0)

    def test_speedup_vs_nop(self, engine):
        report = drift_report(enact(engine, OptimizationConfig.sp_dp()))
        expected = makespans(TIMES)
        assert report.speedup_vs_nop == pytest.approx(
            expected["NOP"] / expected["SP+DP"]
        )

    def test_overhead_split_feeds_intercept(self):
        # One service, two items, 3s of overhead inside each 5s slot:
        # the intercept estimate must follow the overhead matrix.
        trace = ExecutionTrace()
        trace.add(TraceEvent("P", "D0", 0.0, 5.0, job_ids=(1,)))
        trace.add(TraceEvent("P", "D1", 5.0, 10.0, job_ids=(2,)))
        report = drift_report_from_trace(
            trace, "NOP", overhead_by_job={1: 3.0, 2: 3.0}
        )
        assert report.y_intercept_estimate == pytest.approx(6.0)  # NOP sums
        assert report.slope_estimate == pytest.approx((10.0 - 6.0) / 2)

    def test_unknown_policy_rejected(self):
        trace = ExecutionTrace()
        trace.add(TraceEvent("P", "D0", 0.0, 1.0))
        with pytest.raises(DriftError, match="unknown policy"):
            drift_report_from_trace(trace, "TURBO")


class TestOverheadFromSpans:
    def test_sums_pre_running_phases_per_job(self):
        def phase(name, job_id, start, end):
            return Span(
                name=name, category="grid", span_id=f"{name}:{job_id}",
                trace_id="run-1:wf", start=start, end=end,
                attributes={"job_id": job_id},
            )

        spans = [
            phase("job.submit", 1, 0.0, 2.0),
            phase("job.schedule", 1, 2.0, 2.0),
            phase("job.queue", 1, 2.0, 7.0),
            phase("job.run", 1, 7.0, 20.0),  # execution: not overhead
            phase("job.fault", 2, 0.0, 4.0),
            phase("job.queue", 2, 5.0, 6.0),
        ]
        overheads = overhead_by_job_from_spans(spans)
        assert overheads == {1: 7.0, 2: 5.0}

    def test_open_and_jobless_spans_ignored(self):
        spans = [
            Span("job.queue", "grid", "a", "t", 0.0),  # still open
            Span("job.queue", "grid", "b", "t", 0.0, end=1.0),  # no job_id
        ]
        assert overhead_by_job_from_spans(spans) == {}
