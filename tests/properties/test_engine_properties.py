"""Property-based tests for the DES kernel."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import Resource


class TestClockProperties:
    @given(st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=1, max_size=30))
    def test_time_never_goes_backwards(self, delays):
        engine = Engine()
        observed = []

        def watcher(eng, delay):
            yield eng.timeout(delay)
            observed.append(eng.now)

        for delay in delays:
            engine.process(watcher(engine, delay))
        engine.run()
        assert observed == sorted(observed)
        assert engine.now == max(delays)

    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=20))
    def test_determinism(self, delays):
        def run_once():
            engine = Engine()
            log = []

            def proc(eng, i, delay):
                yield eng.timeout(delay)
                log.append((i, eng.now))

            for i, delay in enumerate(delays):
                engine.process(proc(engine, i, delay))
            engine.run()
            return log

        assert run_once() == run_once()


class TestResourceProperties:
    @given(
        st.integers(1, 5),
        st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=1, max_size=20),
    )
    def test_concurrency_never_exceeds_capacity(self, capacity, durations):
        engine = Engine()
        resource = Resource(engine, capacity)
        active = [0]
        peak = [0]

        def worker(eng, duration):
            request = resource.request()
            yield request
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            try:
                yield eng.timeout(duration)
            finally:
                active[0] -= 1
                resource.release(request)

        for duration in durations:
            engine.process(worker(engine, duration))
        engine.run()
        assert peak[0] <= capacity
        assert active[0] == 0
        assert resource.in_use == 0

    @given(
        st.integers(1, 4),
        st.lists(st.floats(0.5, 5.0, allow_nan=False), min_size=1, max_size=15),
    )
    def test_total_work_conserved(self, capacity, durations):
        """Makespan >= total work / capacity (no work invented or lost)."""
        engine = Engine()
        resource = Resource(engine, capacity)

        def worker(eng, duration):
            request = resource.request()
            yield request
            try:
                yield eng.timeout(duration)
            finally:
                resource.release(request)

        for duration in durations:
            engine.process(worker(engine, duration))
        engine.run()
        assert engine.now >= sum(durations) / capacity - 1e-9
        assert engine.now >= max(durations) - 1e-9
