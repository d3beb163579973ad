"""Failure containment: error tokens, dead letters, the failure report."""

import pytest

from repro.cache import InMemoryStore, ResultCache
from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.enactor import EnactmentError
from repro.core.failures import FailureReport
from repro.services.base import LocalService
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.patterns import chain_workflow


def failing_chain(engine, fail_stage, fail_values, length=3, duration=1.0):
    """A +1 chain whose stage *fail_stage* dies on the given input values.

    Values are checked against the item as seen at that stage (the
    original input plus one per upstream stage).
    """

    def factory(name, inputs, outputs):
        index = int(name[1:])

        def fn(x):
            if index == fail_stage and x in fail_values:
                raise RuntimeError(f"injected failure at {name} on {x}")
            return {"y": x + 1}

        return LocalService(engine, name, inputs, outputs, function=fn, duration=duration)

    return chain_workflow(factory, length)


class TestStrictMode:
    def test_strict_is_the_default(self):
        assert OptimizationConfig.nop().failure_mode == "strict"
        assert not OptimizationConfig.nop().best_effort

    def test_strict_run_still_raises(self, engine):
        workflow = failing_chain(engine, fail_stage=2, fail_values={2})
        with pytest.raises(EnactmentError, match="injected failure"):
            MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
                {"input": [0, 1, 2]}
            )

    def test_invalid_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="failure_mode"):
            OptimizationConfig(failure_mode="yolo")

    def test_with_best_effort_keeps_label(self):
        config = OptimizationConfig.sp_dp()
        relaxed = config.with_best_effort()
        assert relaxed.best_effort
        assert relaxed.label == config.label


class TestBestEffortContainment:
    def test_run_completes_with_survivors(self, engine):
        workflow = failing_chain(engine, fail_stage=2, fail_values={2})
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"input": [0, 1, 2]})
        # items 0 and 2 survive the whole chain (+1 per stage)
        assert sorted(result.output_values("result")) == [3, 5]

    def test_failure_report_populated(self, engine):
        workflow = failing_chain(engine, fail_stage=2, fail_values={2})
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"input": [0, 1, 2]})
        report = result.failures
        assert report is not None and not report.empty
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.processor == "P2"
        assert "injected failure" in failure.error
        # the stage after the failure is skipped, the sink gets a dead letter
        assert report.skipped == 1
        assert len(report.dead_letters) == 1
        assert report.dead_letters[0].sink == "result"
        assert report.dead_letters[0].root is failure

    def test_strict_result_has_no_report(self, engine):
        workflow = failing_chain(engine, fail_stage=99, fail_values=set())
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"input": [1]}
        )
        assert result.failures is None

    def test_clean_best_effort_report_is_empty(self, engine):
        workflow = failing_chain(engine, fail_stage=99, fail_values=set())
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"input": [1, 2]})
        assert result.failures is not None
        assert result.failures.empty

    def test_lineage_identifies_lost_inputs(self, engine):
        workflow = failing_chain(engine, fail_stage=1, fail_values={10})
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"input": [0, 10, 20]})
        lost = result.failures.poisoned_lineage()
        assert lost == {"input": frozenset({1})}  # index 1 carried value 10

    def test_trace_kinds(self, engine):
        workflow = failing_chain(engine, fail_stage=1, fail_values={5}, length=3)
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"input": [5, 6]})
        kinds = result.trace.count_by_kind()
        assert kinds.get("failed") == 1
        assert kinds.get("poisoned") == 2  # stages 2 and 3 skip the dead lineage
        assert kinds.get("invocation") == 3  # item 6 runs all three stages
        # completed-invocation counter excludes failures and skips
        assert result.invocation_count == 3

    @pytest.mark.parametrize("synchronization", [False, True], ids=["ordinary", "synchronization"])
    def test_failing_leader_closes_its_flight_and_drains(self, engine, synchronization):
        """A service that raises while its single-flight is open: the
        flight closes with the error, the coalesced follower fails too,
        each run records one failure, and the failed processor still
        drains — or the barrier downstream of it would never fire."""
        cache = ResultCache(store=InMemoryStore())
        config = OptimizationConfig.sp_dp().with_best_effort()

        def boom(x):
            raise RuntimeError("injected failure")

        def build():
            return (
                WorkflowBuilder("flight")
                .source("items")
                .service("S", LocalService(engine, "S", ("x",), ("y",), lambda x: {"y": x}, 1.0))
                .service(
                    "last",
                    LocalService(engine, "last", ("x",), ("y",), boom, 1.0),
                    synchronization=synchronization,
                )
                .service(
                    "tail",
                    LocalService(engine, "tail", ("x",), ("y",), lambda x: {"y": x}, 1.0),
                    synchronization=True,
                )
                .sink("out")
                .connect("items:output", "S:x")
                .connect("S:y", "last:x")
                .connect("last:y", "tail:x")
                .connect("tail:y", "out:input")
                .build()
            )

        done = [
            MoteurEnactor(engine, build(), config, cache=cache).enact({"items": [1]})
            for _ in range(2)
        ]
        for result in (engine.run(until=event) for event in done):
            assert result.output_values("out") == []
            assert [f.processor for f in result.failures.failures] == ["last"]
            assert len(result.failures.dead_letters) == 1
            kinds = result.trace.count_by_kind()
            assert kinds.get("failed") == 1 and kinds.get("poisoned") == 1
        assert cache.snapshot().total.coalesced == 1  # the follower's S; "last" failed
        assert cache._inflight == {}

    def test_failures_under_every_policy(self, engine_factory=None):
        for config in (
            OptimizationConfig.nop(),
            OptimizationConfig.dp(),
            OptimizationConfig.sp(),
            OptimizationConfig.sp_dp(),
        ):
            from repro.sim.engine import Engine

            engine = Engine()
            workflow = failing_chain(engine, fail_stage=2, fail_values={2})
            result = MoteurEnactor(engine, workflow, config.with_best_effort()).run(
                {"input": [0, 1, 2]}
            )
            assert sorted(result.output_values("result")) == [3, 5], config.label
            assert len(result.failures.failures) == 1, config.label

    def test_to_rows_schema(self, engine):
        workflow = failing_chain(engine, fail_stage=1, fail_values={5})
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"input": [5]})
        (row,) = result.failures.to_rows()
        for key in (
            "processor", "label", "kind", "lineage", "error",
            "failed_at", "job_ids", "attempts", "computing_elements",
        ):
            assert key in row
        assert row["kind"] == "failed"


class TestDotProductPoisoning:
    def test_error_token_pairs_with_its_sibling_only(self, engine):
        """Dot iteration: the poison kills item i's pairing, not item j's."""
        left = LocalService(
            engine, "left", ("x",), ("y",),
            function=lambda x: (_ for _ in ()).throw(RuntimeError("boom"))
            if x == 1 else {"y": x},
            duration=1.0,
        )
        right = LocalService(
            engine, "right", ("x",), ("y",), function=lambda x: {"y": x * 10},
            duration=1.0,
        )
        join = LocalService(
            engine, "join", ("a", "b"), ("y",),
            function=lambda a, b: {"y": (a, b)}, duration=1.0,
        )
        workflow = (
            WorkflowBuilder("dot")
            .source("items")
            .service("left", left).service("right", right).service("join", join)
            .sink("out")
            .connect("items:output", "left:x")
            .connect("items:output", "right:x")
            .connect("left:y", "join:a")
            .connect("right:y", "join:b")
            .connect("join:y", "out:input")
            .build()
        )
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"items": [0, 1, 2]})
        assert sorted(result.output_values("out")) == [(0, 0), (2, 20)]
        report = result.failures
        assert len(report.failures) == 1
        assert report.skipped == 1  # join for item 1
        assert len(report.dead_letters) == 1


class TestSynchronizationBarriers:
    def _sync_workflow(self, engine, fail_values):
        def stage(x):
            if x in fail_values:
                raise RuntimeError(f"stage died on {x}")
            return {"y": x + 1}

        s = LocalService(engine, "S", ("x",), ("y",), function=stage, duration=1.0)
        gather = LocalService(
            engine, "gather", ("xs",), ("total",),
            function=lambda xs: {"total": sorted(xs)}, duration=1.0,
        )
        return (
            WorkflowBuilder("sync")
            .source("items")
            .service("S", s)
            .service("gather", gather, synchronization=True)
            .sink("out")
            .connect("items:output", "S:x")
            .connect("S:y", "gather:xs")
            .connect("gather:total", "out:input")
            .build()
        )

    def test_barrier_drops_poisoned_and_runs_on_survivors(self, engine):
        workflow = self._sync_workflow(engine, fail_values={1})
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"items": [0, 1, 2]})
        assert result.output_values("out") == [[1, 3]]
        assert result.failures.barrier_drops == 1
        assert len(result.failures.dead_letters) == 0

    def test_fully_starved_barrier_emits_dead_letter(self, engine):
        workflow = self._sync_workflow(engine, fail_values={0, 1, 2})
        config = OptimizationConfig.sp_dp().with_best_effort()
        result = MoteurEnactor(engine, workflow, config).run({"items": [0, 1, 2]})
        assert result.output_values("out") == []
        report = result.failures
        assert len(report.failures) == 3
        assert len(report.dead_letters) == 1
        assert result.trace.count_by_kind().get("poisoned") == 1


class TestReportAggregation:
    def test_by_service_counts(self):
        report = FailureReport()
        assert report.empty
        assert report.by_service() == {}
        assert report.by_computing_element() == {}
        assert report.to_rows() == []
