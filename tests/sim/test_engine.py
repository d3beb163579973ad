"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import (
    Engine,
    Event,
    SimulationError,
)


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(5.0)
        engine.run()
        assert engine.now == 5.0

    def test_run_until_time_stops_exactly(self, engine):
        engine.timeout(10.0)
        engine.run(until=4.0)
        assert engine.now == 4.0

    def test_run_until_past_time_raises(self, engine):
        engine.timeout(1.0)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run(until=0.5)

    def test_peek_reports_next_event_time(self, engine):
        engine.timeout(3.0)
        engine.timeout(1.0)
        assert engine.peek() == 1.0

    def test_peek_empty_is_inf(self, engine):
        assert engine.peek() == float("inf")

    def test_step_on_empty_schedule_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.step()


class TestEvent:
    def test_succeed_carries_value(self, engine):
        evt = engine.event()
        evt.succeed(42)
        engine.run()
        assert evt.triggered and evt.ok and evt.value == 42

    def test_double_succeed_raises(self, engine):
        evt = engine.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_then_succeed_raises(self, engine):
        evt = engine.event()
        evt.fail(RuntimeError("boom"))
        evt.defused = True
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_requires_exception(self, engine):
        evt = engine.event()
        with pytest.raises(TypeError):
            evt.fail("not an exception")

    def test_value_before_trigger_raises(self, engine):
        evt = engine.event()
        with pytest.raises(SimulationError):
            _ = evt.value

    def test_ok_before_trigger_raises(self, engine):
        evt = engine.event()
        with pytest.raises(SimulationError):
            _ = evt.ok

    def test_unhandled_failure_propagates_at_step(self, engine):
        evt = engine.event()
        evt.fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError, match="nobody caught me"):
            engine.run()

    def test_defused_failure_does_not_propagate(self, engine):
        evt = engine.event()
        evt.fail(ValueError("defused"))
        evt.defused = True
        engine.run()  # no raise

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-1.0)

    def test_negative_schedule_delay_rejected(self, engine):
        evt = Event(engine)
        with pytest.raises(SimulationError):
            engine.schedule(evt, delay=-0.1)


class TestProcess:
    def test_return_value_becomes_event_value(self, engine):
        def proc(eng):
            yield eng.timeout(1.0)
            return "done"

        p = engine.process(proc(engine))
        assert engine.run(until=p) == "done"

    def test_exception_fails_process(self, engine):
        def proc(eng):
            yield eng.timeout(1.0)
            raise RuntimeError("inner")

        p = engine.process(proc(engine))
        with pytest.raises(RuntimeError, match="inner"):
            engine.run(until=p)

    def test_failed_event_raises_inside_process(self, engine):
        evt = engine.event()

        def proc(eng):
            try:
                yield evt
            except ValueError:
                return "caught"

        p = engine.process(proc(engine))
        evt.fail(ValueError("from event"))
        assert engine.run(until=p) == "caught"

    def test_yielding_non_event_fails_process(self, engine):
        def proc(eng):
            yield 42

        p = engine.process(proc(engine))
        with pytest.raises(SimulationError):
            engine.run(until=p)

    def test_process_requires_generator(self, engine):
        with pytest.raises(TypeError):
            engine.process(lambda: None)

    def test_waiting_on_already_processed_event(self, engine):
        evt = engine.event()
        evt.succeed("early")
        engine.run()  # evt fully processed, callbacks gone

        def proc(eng):
            value = yield evt
            return value

        p = engine.process(proc(engine))
        assert engine.run(until=p) == "early"

    def test_processes_wait_for_each_other(self, engine):
        def child(eng):
            yield eng.timeout(3.0)
            return 7

        def parent(eng):
            value = yield eng.process(child(eng))
            return value * 2

        p = engine.process(parent(engine))
        assert engine.run(until=p) == 14
        assert engine.now == 3.0


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self, engine):
        order = []
        for i in range(10):
            evt = engine.event()
            evt.add_waiter(lambda e, i=i: order.append(i))
            evt.succeed()
        engine.run()
        assert order == list(range(10))

    def test_two_runs_identical(self):
        def build_and_run():
            eng = Engine()
            log = []

            def worker(eng, wid, delay):
                yield eng.timeout(delay)
                log.append((wid, eng.now))

            for i in range(20):
                eng.process(worker(eng, i, (i * 7) % 5))
            eng.run()
            return log

        assert build_and_run() == build_and_run()


class TestComposites:
    def test_all_of_collects_values_in_given_order(self, engine):
        def make(delay, value):
            def proc(eng):
                yield eng.timeout(delay)
                return value

            return engine.process(proc(engine))

        procs = [make(3, "a"), make(1, "b"), make(2, "c")]
        result = engine.run(until=engine.all_of(procs))
        assert result == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_all_of_empty_succeeds_immediately(self, engine):
        evt = engine.all_of([])
        engine.run()
        assert evt.triggered and evt.ok

    def test_all_of_fails_on_first_failure(self, engine):
        good = engine.timeout(5.0)
        bad = engine.event()
        combo = engine.all_of([good, bad])
        bad.fail(RuntimeError("bad"))
        with pytest.raises(RuntimeError, match="bad"):
            engine.run(until=combo)

    def test_any_of_returns_winner(self, engine):
        slow = engine.timeout(5.0, value="slow")
        fast = engine.timeout(1.0, value="fast")
        winner, value = engine.run(until=engine.any_of([slow, fast]))
        assert value == "fast" and winner is fast
        assert engine.now == 1.0

    def test_any_of_empty_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.any_of([])

    def test_any_of_with_already_triggered_event(self, engine):
        done = engine.event()
        done.succeed("now")
        engine.run()
        winner, value = engine.run(until=engine.any_of([done, engine.timeout(9)]))
        assert value == "now"

    def test_all_of_with_pre_triggered_events(self, engine):
        e1 = engine.event()
        e1.succeed(1)
        engine.run()
        e2 = engine.timeout(2.0, value=2)
        combo = engine.all_of([e1, e2])
        assert engine.run(until=combo) == [1, 2]


class TestRunUntilEvent:
    def test_deadlock_detected(self, engine):
        never = engine.event()
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run(until=never)

    def test_failed_until_event_raises(self, engine):
        evt = engine.event()

        def proc(eng):
            yield eng.timeout(1.0)
            evt.fail(RuntimeError("target failed"))

        engine.process(proc(engine))
        with pytest.raises(RuntimeError, match="target failed"):
            engine.run(until=evt)
