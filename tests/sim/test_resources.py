"""Unit tests for Resource."""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.resources import Resource


def run_workers(engine, resource, count, duration):
    finished = []

    def worker(eng, wid):
        req = resource.request()
        yield req
        try:
            yield eng.timeout(duration)
            finished.append((wid, eng.now))
        finally:
            resource.release(req)

    for i in range(count):
        engine.process(worker(engine, i))
    engine.run()
    return finished


class TestResource:
    def test_capacity_one_serializes(self, engine):
        res = Resource(engine, 1)
        finished = run_workers(engine, res, 3, 10.0)
        assert [t for _, t in finished] == [10.0, 20.0, 30.0]

    def test_capacity_two_pairs_up(self, engine):
        res = Resource(engine, 2)
        finished = run_workers(engine, res, 4, 10.0)
        assert [t for _, t in finished] == [10.0, 10.0, 20.0, 20.0]

    def test_infinite_capacity_all_parallel(self, engine):
        res = Resource(engine, float("inf"))
        finished = run_workers(engine, res, 50, 10.0)
        assert all(t == 10.0 for _, t in finished)

    def test_fifo_grant_order(self, engine):
        res = Resource(engine, 1)
        finished = run_workers(engine, res, 5, 1.0)
        assert [wid for wid, _ in finished] == [0, 1, 2, 3, 4]

    def test_in_use_and_queue_length(self, engine):
        res = Resource(engine, 1)
        first = res.request()
        second = res.request()
        assert res.in_use == 1
        assert res.queue_length == 1
        assert first.triggered and not second.triggered

    def test_release_wakes_next(self, engine):
        res = Resource(engine, 1)
        first = res.request()
        second = res.request()
        res.release(first)
        assert second.triggered
        assert res.in_use == 1

    def test_release_ungranted_raises(self, engine):
        res = Resource(engine, 1)
        stranger = engine.event()
        with pytest.raises(SimulationError):
            res.release(stranger)

    def test_double_release_raises(self, engine):
        res = Resource(engine, 1)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_queued_request(self, engine):
        res = Resource(engine, 1)
        res.request()
        queued = res.request()
        res.release(queued)  # cancels the queued request
        assert res.queue_length == 0

    def test_invalid_capacity_rejected(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, 0)
        with pytest.raises(ValueError):
            Resource(engine, 1.5)
