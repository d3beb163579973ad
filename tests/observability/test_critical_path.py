"""Tests for the observed-critical-path reconstruction."""

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.cache import ResultCache
from repro.core import MoteurEnactor, OptimizationConfig
from repro.observability import InstrumentationBus
from repro.observability.critical_path import (
    OVERHEAD_KEYS,
    CriticalPathError,
    diff_against_static,
    observed_critical_path,
)
from repro.observability.spans import Span
from repro.services.base import LocalService
from repro.workflow.patterns import chain_workflow

TIMINGS = {
    "crestLines": 10.0,
    "crestMatch": 10.0,
    "Baladin": 10.0,
    "Yasmina": 10.0,
    "PFMatchICP": 10.0,
    "PFRegister": 10.0,
}

POLICIES = [
    OptimizationConfig.nop(),
    OptimizationConfig.dp(),
    OptimizationConfig.sp(),
    OptimizationConfig.sp_dp(),
]


def enact_chain(engine, config, durations=(3.0, 5.0), n_items=3):
    def factory(name, inputs, outputs):
        index = int(name[1:]) - 1
        return LocalService(
            engine, name, inputs, outputs,
            function=lambda x: {"y": x}, duration=durations[index],
        )

    workflow = chain_workflow(factory, len(durations))
    bus = InstrumentationBus()
    collector = bus.collector()
    result = MoteurEnactor(engine, workflow, config, instrumentation=bus).run(
        {"input": list(range(n_items))}
    )
    return workflow, result, collector.spans


class TestReconstruction:
    @pytest.mark.parametrize("config", POLICIES, ids=lambda c: c.label)
    def test_chain_tiles_the_run_for_every_policy(self, engine, config):
        _wf, result, spans = enact_chain(engine, config)
        observed = observed_critical_path(spans)
        assert observed.policy == config.label
        assert observed.makespan == pytest.approx(result.makespan)
        assert observed.total == pytest.approx(observed.makespan)
        assert sum(observed.phase_totals().values()) == pytest.approx(
            observed.makespan
        )

    def test_local_services_attribute_to_execute(self, engine):
        _wf, _result, spans = enact_chain(engine, OptimizationConfig.nop())
        observed = observed_critical_path(spans)
        totals = observed.phase_totals()
        assert set(totals) == {"execute"}
        for step in observed.steps:
            assert step.job_ids == ()
            assert step.dominant_phase() == "execute"

    def test_diff_matches_for_a_chain(self, engine):
        workflow, _result, spans = enact_chain(engine, OptimizationConfig.nop())
        diff = diff_against_static(observed_critical_path(spans), workflow)
        assert diff.matches
        assert diff.static == diff.observed

    def test_no_run_span_raises(self):
        with pytest.raises(CriticalPathError, match="no finished run span"):
            observed_critical_path([])


class TestBronzeStandard:
    def test_ideal_grid_is_pure_execution(self, engine, ideal_grid, streams):
        app = BronzeStandardApplication(
            engine, ideal_grid, streams, timings=TIMINGS, mtt_time=5.0
        )
        bus = InstrumentationBus()
        collector = bus.collector()
        result = app.enact(
            OptimizationConfig.sp_dp(), n_pairs=2, instrumentation=bus
        )
        observed = observed_critical_path(collector.spans)
        assert observed.total == pytest.approx(result.makespan)
        # the ideal testbed has no submission/queueing latency: the whole
        # chain is useful execution
        assert observed.overhead_total() == pytest.approx(0.0)
        assert observed.phase_totals()["execute"] == pytest.approx(result.makespan)

    def test_egee_grid_shows_overhead_phases(self, engine, egee_grid, streams):
        app = BronzeStandardApplication(engine, egee_grid, streams)
        bus = InstrumentationBus()
        collector = bus.collector()
        result = app.enact(
            OptimizationConfig.sp_dp(), n_pairs=2, instrumentation=bus
        )
        observed = observed_critical_path(collector.spans)
        assert observed.total == pytest.approx(result.makespan)
        assert observed.overhead_total() > 0.0
        assert set(observed.phase_totals()) & set(OVERHEAD_KEYS)

    def test_warm_cached_run_has_an_empty_chain(self, engine, ideal_grid, streams):
        app = BronzeStandardApplication(
            engine, ideal_grid, streams, timings=TIMINGS, mtt_time=5.0
        )
        bus = InstrumentationBus()
        collector = bus.collector()
        cache = ResultCache()
        config = OptimizationConfig.sp_dp()
        dataset = app.build_dataset(2)
        app.enact(config, dataset=dataset, cache=cache, instrumentation=bus)
        warm = app.enact(config, dataset=dataset, cache=cache, instrumentation=bus)
        # the collector now holds two runs; the most recent (warm) one
        # is selected by default
        observed = observed_critical_path(collector.spans)
        assert observed.makespan == pytest.approx(warm.makespan)
        assert observed.total == pytest.approx(observed.makespan)


class TestGapHandling:
    def test_uninstrumented_interval_becomes_a_wait_step(self):
        run = Span(
            name="run", category="enactor", span_id="r", trace_id="t",
            start=0.0, end=10.0,
            attributes={"workflow": "wf"},
        )
        invocation = Span(
            name="invocation", category="enactor", span_id="i", trace_id="t",
            start=0.0, end=4.0,
            attributes={"processor": "P1", "label": "D0"},
        )
        observed = observed_critical_path([run, invocation])
        assert [s.kind for s in observed.steps] == ["invocation", "wait"]
        assert observed.steps[1].phases == {"wait": 6.0}
        assert observed.total == pytest.approx(10.0)
