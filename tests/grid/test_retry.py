"""Retry policies, retry budgets, and their enforcement by the middleware."""

import numpy as np
import pytest

from repro.grid.faults import FaultModel
from repro.grid.job import JobDescription, JobFailedError, JobState
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.retry import RetryBudget, RetryPolicy
from repro.grid.storage import StorageElement
from repro.observability import InstrumentationBus
from repro.util.distributions import Distribution
from repro.util.rng import RandomStreams


def make_grid(
    engine, streams, faults=None, policy=None, budget=None, bus=None, slots=4, overhead=None
):
    ce = ComputingElement(
        engine, "ce0", "s0", workers=[WorkerNode("w0", slots=slots)]
    )
    return Grid(
        engine,
        streams,
        sites=[Site(name="s0", computing_elements=[ce], storage_element=StorageElement("se0", site="s0"))],
        overhead=overhead or OverheadModel.zero(),
        faults=faults or FaultModel.none(),
        retry_policy=policy,
        retry_budget=budget,
        instrumentation=bus,
    )


def run_to_failure(engine, handle):
    with pytest.raises(JobFailedError) as info:
        engine.run(until=handle.completion)
    return info.value


class TestRetryPolicy:
    def test_default_is_the_legacy_loop(self):
        policy = RetryPolicy.default()
        assert policy.kind == "fixed"
        assert policy.base_delay == 0.0
        assert policy.max_attempts is None
        assert policy.attempt_timeout is None
        assert policy.job_deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "polynomial"},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"max_attempts": 0},
            {"attempt_timeout": 0.0},
            {"job_deadline": -5.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_fixed_backoff_is_constant(self):
        policy = RetryPolicy.fixed(30.0)
        rng = np.random.default_rng(0)
        assert [policy.backoff(n, rng) for n in (1, 2, 5)] == [30.0, 30.0, 30.0]

    def test_exponential_backoff_grows_and_caps(self):
        policy = RetryPolicy.exponential(base_delay=10.0, multiplier=2.0, max_delay=35.0)
        rng = np.random.default_rng(0)
        assert policy.backoff(1, rng) == 10.0
        assert policy.backoff(2, rng) == 20.0
        assert policy.backoff(3, rng) == 35.0  # 40 capped
        assert policy.backoff(7, rng) == 35.0

    def test_backoff_rejects_nonpositive_failures(self):
        with pytest.raises(ValueError):
            RetryPolicy.fixed(1.0).backoff(0, np.random.default_rng(0))

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy.exponential(base_delay=100.0, jitter=0.25)
        a = [policy.backoff(1, np.random.default_rng(7)) for _ in range(3)]
        b = [policy.backoff(1, np.random.default_rng(7)) for _ in range(3)]
        assert a == b  # same stream, same pauses
        rng = np.random.default_rng(123)
        for _ in range(50):
            delay = policy.backoff(1, rng)
            assert 75.0 <= delay <= 125.0

    def test_describe_mentions_every_knob(self):
        text = RetryPolicy.exponential(
            base_delay=15.0, multiplier=2.0, max_delay=240.0, jitter=0.2,
            max_attempts=5, attempt_timeout=600.0, job_deadline=3600.0,
        ).describe()
        for fragment in ("exponential", "base=15s", "x2", "cap=240s",
                         "jitter=20%", "attempts<=5", "attempt_timeout=600s",
                         "deadline=3600s"):
            assert fragment in text


class TestRetryBudget:
    def test_unlimited_never_denies(self):
        budget = RetryBudget.unlimited()
        assert budget.remaining() is None
        assert all(budget.try_spend("svc") for _ in range(100))
        assert budget.denied == 0

    def test_total_cap(self):
        budget = RetryBudget(total=2)
        assert budget.try_spend("a")
        assert budget.try_spend("b")
        assert not budget.try_spend("a")
        assert budget.denied == 1
        assert budget.remaining() == 0

    def test_per_service_cap_is_independent(self):
        budget = RetryBudget(per_service=1)
        assert budget.try_spend("a")
        assert not budget.try_spend("a")
        assert budget.try_spend("b")  # other services unaffected
        assert budget.remaining("a") == 0
        assert budget.remaining("b") == 0
        assert budget.spent_by_service == {"a": 1, "b": 1}

    def test_tightest_bound_wins(self):
        budget = RetryBudget(total=10, per_service=1)
        budget.try_spend("a")
        assert budget.remaining("a") == 0
        assert budget.remaining() == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(total=-1)
        with pytest.raises(ValueError):
            RetryBudget(per_service=-1)


class TestMiddlewareEnforcement:
    def test_backoff_delays_resubmission(self, engine, streams):
        # probability 1: every attempt faults, so a 3-attempt job with a
        # 50s fixed pause fails exactly 100s later than the naive loop
        faults = FaultModel.from_values(probability=1.0, max_attempts=3)
        grid = make_grid(engine, streams, faults=faults, policy=RetryPolicy.fixed(50.0))
        handle = grid.submit(JobDescription(name="j", compute_time=10.0))
        error = run_to_failure(engine, handle)
        assert engine.now == pytest.approx(100.0)  # two pauses, no other delay
        assert error.record.attempts == 3
        assert "(all 3 attempts)" in str(error)
        assert [a.kind for a in error.record.failure_history] == ["fault"] * 3

    def test_policy_max_attempts_overrides_fault_model(self, engine, streams):
        faults = FaultModel.from_values(probability=1.0, max_attempts=10)
        grid = make_grid(
            engine, streams, faults=faults, policy=RetryPolicy(max_attempts=1)
        )
        handle = grid.submit(JobDescription(name="j"))
        error = run_to_failure(engine, handle)
        assert error.record.attempts == 1

    def test_budget_exhaustion_stops_the_job(self, engine, streams):
        faults = FaultModel.from_values(probability=1.0, max_attempts=10)
        budget = RetryBudget(per_service=1)
        bus = InstrumentationBus()
        grid = make_grid(engine, streams, faults=faults, budget=budget, bus=bus)
        handle = grid.submit(JobDescription(name="j", tags={"service": "svc"}))
        error = run_to_failure(engine, handle)
        # first attempt + one budgeted retry, then the denial breaks the loop
        assert error.record.attempts == 2
        assert "retry budget exhausted" in str(error)
        assert error.record.failure_history[-1].kind == "budget"
        assert budget.denied == 1
        assert budget.spent_by_service == {"svc": 1}
        assert bus.metrics.counter("grid.jobs.budget_denied").value == 1

    def test_job_deadline_stops_new_attempts(self, engine, streams):
        faults = FaultModel.from_values(
            probability=1.0, detection_delay=10.0, max_attempts=100
        )
        policy = RetryPolicy(job_deadline=25.0)
        grid = make_grid(engine, streams, faults=faults, policy=policy)
        handle = grid.submit(JobDescription(name="j"))
        error = run_to_failure(engine, handle)
        # attempts at t=0, 10, 20; by t=30 the deadline blocks attempt 4
        assert error.record.attempts == 3
        assert error.record.failure_history[-1].kind == "deadline"
        assert "deadline" in str(error)

    def test_attempt_timeout_abandons_running_job(self, engine, streams):
        faults = FaultModel.from_values(probability=0.0, max_attempts=2)
        policy = RetryPolicy(attempt_timeout=50.0)
        bus = InstrumentationBus()
        grid = make_grid(engine, streams, faults=faults, policy=policy, bus=bus)
        handle = grid.submit(JobDescription(name="slow", compute_time=200.0))
        error = run_to_failure(engine, handle)
        assert error.record.attempts == 2
        assert all(a.kind == "timeout" for a in error.record.failure_history)
        assert "timed out" in str(error)
        assert engine.now == pytest.approx(100.0)  # two 50s timeouts back-to-back
        assert bus.metrics.counter("grid.jobs.timeouts").value == 2

    def test_abandoned_attempt_does_not_rewrite_the_finished_job(self, engine, streams):
        # Attempt 1 runs 200 s and is abandoned at the 50 s timeout; the
        # retry runs 10 s and finishes first.  The abandoned attempt keeps
        # its slot to the end and then writes its own execution time: the
        # job's numbers must stay those of the attempt that finished.
        class Durations(Distribution):
            def __init__(self, *seconds):
                self.seconds = iter(seconds)

            def sample(self, rng):
                return next(self.seconds)

        faults = FaultModel.from_values(probability=0.0, max_attempts=2)
        policy = RetryPolicy(attempt_timeout=50.0)
        grid = make_grid(engine, streams, faults=faults, policy=policy, slots=2)
        handle = grid.submit(JobDescription(name="j", compute_time=Durations(200.0, 10.0)))
        engine.run(until=handle.completion)
        engine.run()  # the abandoned attempt runs out its 200 s
        (job,) = grid.records
        assert job.state is JobState.DONE and job.attempts == 2
        assert job.makespan == pytest.approx(60.0)
        assert job.execution_time == pytest.approx(10.0)
        assert job.overhead == pytest.approx(50.0)

    def test_abandoned_attempt_finishing_before_done_does_not_rewrite_the_job(
        self, engine, streams
    ):
        # Attempt 1 runs 70 s and is abandoned at the 50 s timeout; the
        # retry runs 10 s (t = 50-60) and waits 30 s for its completion
        # notification.  Attempt 1 ends at t = 70, inside that wait: its
        # execution time must not land in the job the retry finishes.
        class Durations(Distribution):
            def __init__(self, *seconds):
                self.seconds = iter(seconds)

            def sample(self, rng):
                return next(self.seconds)

        faults = FaultModel.from_values(probability=0.0, max_attempts=2)
        policy = RetryPolicy(attempt_timeout=50.0)
        notify = OverheadModel.from_values(completion_notification=30.0)
        grid = make_grid(
            engine, streams, faults=faults, policy=policy, slots=2, overhead=notify
        )
        handle = grid.submit(JobDescription(name="j", compute_time=Durations(70.0, 10.0)))
        engine.run(until=handle.completion)
        (job,) = grid.records
        assert job.state is JobState.DONE and job.attempts == 2
        assert job.makespan == pytest.approx(90.0)
        assert job.execution_time == pytest.approx(10.0)
        assert job.overhead == pytest.approx(80.0)

    def test_attempt_timeout_leaves_fast_jobs_alone(self, engine, streams):
        policy = RetryPolicy(attempt_timeout=50.0)
        grid = make_grid(engine, streams, policy=policy)
        handle = grid.submit(JobDescription(name="fast", compute_time=10.0))
        record = engine.run(until=handle.completion)
        assert record.state is JobState.DONE
        assert record.attempts == 1
        assert record.failure_history == []

    def test_backoff_pause_is_instrumented(self, engine, streams):
        faults = FaultModel.from_values(probability=1.0, max_attempts=2)
        bus = InstrumentationBus()
        collector = bus.collector()
        grid = make_grid(
            engine, streams, faults=faults, policy=RetryPolicy.fixed(30.0), bus=bus
        )
        run_to_failure(engine, grid.submit(JobDescription(name="j")))
        pauses = [s for s in collector.spans if s.name == "job.backoff"]
        assert len(pauses) == 1
        assert pauses[0].duration == pytest.approx(30.0)
        histogram = bus.metrics.histogram("grid.retry.backoff_seconds")
        assert histogram.count == 1

    def test_seeded_runs_are_reproducible_with_jitter(self):
        def failure_time(seed):
            from repro.sim.engine import Engine

            engine = Engine()
            streams = RandomStreams(seed=seed)
            faults = FaultModel.from_values(probability=1.0, max_attempts=4)
            policy = RetryPolicy.exponential(base_delay=20.0, jitter=0.5)
            grid = make_grid(engine, streams, faults=faults, policy=policy)
            run_to_failure(engine, grid.submit(JobDescription(name="j")))
            return engine.now

        assert failure_time(99) == failure_time(99)


class TestFailureHistorySatellite:
    """Satellite: JobRecord keeps the full per-attempt failure history."""

    def test_history_survives_eventual_success(self, engine, streams):
        # p=0.5: among 20 seeded jobs some succeed only after retries;
        # their records must keep the failed attempts on file while the
        # final failure_reason is cleared.
        faults = FaultModel.from_values(probability=0.5, max_attempts=10)
        grid = make_grid(engine, streams, faults=faults, slots=64)
        handles = [
            grid.submit(JobDescription(name=f"j{i}", compute_time=1.0))
            for i in range(20)
        ]
        for handle in handles:
            engine.run(until=handle.completion)
        bumpy = [r for r in grid.records if r.state is JobState.DONE and r.attempts > 1]
        assert bumpy, "seeded run produced no retried-but-successful job"
        for record in bumpy:
            assert record.failure_reason is None  # success cleared the verdict...
            assert len(record.failure_history) == record.attempts - 1  # ...not the log
            for n, attempt in enumerate(record.failure_history, start=1):
                assert attempt.attempt == n
                assert attempt.kind == "fault"
                assert attempt.computing_element == "ce0"

    def test_history_records_mixed_failure_kinds(self, engine, streams):
        faults = FaultModel.from_values(probability=1.0, max_attempts=3)
        budget = RetryBudget(total=1)
        grid = make_grid(engine, streams, faults=faults, budget=budget)
        error = run_to_failure(engine, grid.submit(JobDescription(name="j")))
        kinds = [a.kind for a in error.record.failure_history]
        assert kinds == ["fault", "fault", "budget"]
