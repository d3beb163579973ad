"""Threaded stress tests: the metrics registry must count exactly.

The enactment service folds telemetry from its worker thread while the
submitting thread reads snapshots; a racy counter would silently skew
the rollups the SLO tracker and Prometheus exporter build on.  These
tests hammer one registry from many threads and demand *exact* totals
— any lost update fails deterministically.
"""

import sys
import threading

from repro.observability.metrics import BoundMetrics, MetricsRegistry

THREADS = 8
ITERATIONS = 2_000


def _run_threads(target):
    workers = [
        threading.Thread(target=target, args=(index,)) for index in range(THREADS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


class TestThreadedCounters:
    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)

        def work(_index):
            counter = registry.counter("shared")
            barrier.wait()
            for _ in range(ITERATIONS):
                counter.inc()

        _run_threads(work)
        assert registry.counter("shared").value == THREADS * ITERATIONS

    def test_concurrent_instrument_creation_yields_one_instance(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)
        seen = []
        lock = threading.Lock()

        def work(_index):
            barrier.wait()
            counter = registry.counter("create-race")
            with lock:
                seen.append(counter)
            counter.inc()

        _run_threads(work)
        assert all(instance is seen[0] for instance in seen)
        assert registry.counter("create-race").value == THREADS


class TestThreadedGaugesAndHistograms:
    def test_gauge_deltas_balance(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)

        def work(_index):
            gauge = registry.gauge("in_flight")
            barrier.wait()
            for _ in range(ITERATIONS):
                gauge.add(1)
                gauge.add(-1)

        _run_threads(work)
        assert registry.gauge("in_flight").value == 0.0
        # the high-water mark can be anything in [1, THREADS] but never more
        assert 1.0 <= registry.gauge("in_flight").high_water <= float(THREADS)

    def test_histogram_observation_count_and_total(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)

        def work(index):
            histogram = registry.histogram("wait")
            barrier.wait()
            for _ in range(ITERATIONS):
                histogram.observe(float(index))

        _run_threads(work)
        snap = registry.snapshot().histogram("wait")
        assert snap.count == THREADS * ITERATIONS
        assert snap.total == sum(
            float(index) * ITERATIONS for index in range(THREADS)
        )

    def test_snapshot_under_concurrent_writes_is_consistent(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer():
            counter = registry.counter("writes")
            while not stop.is_set():
                counter.inc()

        workers = [threading.Thread(target=writer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            for _ in range(50):
                snap = registry.snapshot()
                # a snapshot is a frozen value, never a live view
                value = snap.counter("writes")
                assert value == snap.counter("writes")
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        assert registry.counter("writes").value >= 0


class TestThreadedHandles:
    def test_groups_and_fresh_names_under_concurrent_snapshots(self):
        """Lock-free reads, creation under the lock, one lock per group:
        no lost update, and a snapshot never sees a table mid-insert."""
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS + 1)
        names = 50

        def work(index):
            bound = BoundMetrics(registry)  # each emitter binds its own
            barrier.wait()
            for i in range(ITERATIONS):
                bound.group["bytes.total", f"bytes.link.{i % names}"].inc(2)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
            for worker in workers:
                worker.start()
            barrier.wait()
            while any(worker.is_alive() for worker in workers):
                # a group moves under the registry lock, so every
                # snapshot (a consistent cut) sees it moved whole
                snap = registry.snapshot()
                assert snap.counter("bytes.total") == sum(
                    value for name, value in snap.counters.items() if name != "bytes.total"
                )
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        counters = registry.snapshot().counters
        assert counters["bytes.total"] == 2 * THREADS * ITERATIONS
        assert all(
            counters[f"bytes.link.{i}"] == 2 * THREADS * ITERATIONS / names
            for i in range(names)
        )
