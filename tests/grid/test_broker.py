"""Tests for the resource broker."""

import pytest

from repro.grid.broker import ResourceBroker
from repro.grid.job import JobDescription, JobRecord
from repro.grid.resources import ComputingElement, WorkerNode


def make_ces(engine, count, slots=1):
    return [
        ComputingElement(
            engine, f"ce{i}", f"site{i}", workers=[WorkerNode(f"w{i}", slots=slots)]
        )
        for i in range(count)
    ]


def match_one(engine, broker, delay=0.0):
    record = JobRecord(JobDescription(name="j"))
    proc = engine.process(broker.match(record, delay))
    return engine.run(until=proc)


class TestRanking:
    def test_least_loaded_prefers_idle_ce(self, engine):
        ces = make_ces(engine, 3)
        # load up ce0 and ce1
        ces[0].submit(JobRecord(JobDescription(name="busy0", compute_time=1000.0)))
        ces[1].submit(JobRecord(JobDescription(name="busy1", compute_time=1000.0)))
        engine.run(until=0.1)
        broker = ResourceBroker(engine, ces)
        assert match_one(engine, broker).name == "ce2"

    def test_least_loaded_ties_break_by_name(self, engine):
        ces = make_ces(engine, 3)
        broker = ResourceBroker(engine, ces)
        assert match_one(engine, broker).name == "ce0"

    def test_needs_at_least_one_ce(self, engine):
        with pytest.raises(ValueError):
            ResourceBroker(engine, [])


class TestBrokerConcurrency:
    def test_matchmaking_delay_applies(self, engine):
        ces = make_ces(engine, 1)
        broker = ResourceBroker(engine, ces)
        match_one(engine, broker, delay=30.0)
        assert engine.now == 30.0

    def test_finite_concurrency_serializes_matchmaking(self, engine):
        ces = make_ces(engine, 1)
        broker = ResourceBroker(engine, ces, concurrency=1)
        procs = [
            engine.process(broker.match(JobRecord(JobDescription(name=f"j{i}")), 10.0))
            for i in range(3)
        ]
        engine.run(until=engine.all_of(procs))
        assert engine.now == 30.0  # 3 x 10s strictly serialized

    def test_infinite_concurrency_overlaps(self, engine):
        ces = make_ces(engine, 1)
        broker = ResourceBroker(engine, ces)
        procs = [
            engine.process(broker.match(JobRecord(JobDescription(name=f"j{i}")), 10.0))
            for i in range(3)
        ]
        engine.run(until=engine.all_of(procs))
        assert engine.now == 10.0

    def test_matchmaking_counter(self, engine):
        ces = make_ces(engine, 2)
        broker = ResourceBroker(engine, ces)
        for _ in range(4):
            match_one(engine, broker)
        assert broker.matchmaking_count == 4


class FakeHealth:
    """Scripted HealthProvider stand-in."""

    def __init__(self, blacklist=(), penalties=None):
        self.blacklist = set(blacklist)
        self.penalties = dict(penalties or {})

    def blacklisted(self, ce):
        return ce in self.blacklist

    def penalty(self, ce):
        return self.penalties.get(ce, 0.0)


class TestHealthFeedback:
    def test_blacklisted_ce_avoided(self, engine):
        ces = make_ces(engine, 3)
        broker = ResourceBroker(
            engine, ces,
            health=FakeHealth(blacklist={"ce0"}),
        )
        assert match_one(engine, broker).name == "ce1"
        assert broker.demotions == 1

    def test_all_blacklisted_still_places_the_job(self, engine):
        # a blacklist is a strong preference, never a deadlock
        ces = make_ces(engine, 2)
        broker = ResourceBroker(
            engine, ces,
            health=FakeHealth(blacklist={"ce0", "ce1"}),
        )
        assert match_one(engine, broker).name == "ce0"

    def test_penalty_demotes_without_blacklisting(self, engine):
        ces = make_ces(engine, 2)
        broker = ResourceBroker(
            engine, ces,
            health=FakeHealth(penalties={"ce0": 5.0}),
        )
        assert match_one(engine, broker).name == "ce1"
        assert broker.demotions == 0  # demotion counts blacklist exclusions only

    def test_healthy_provider_changes_nothing(self, engine):
        ces = make_ces(engine, 3)
        plain = ResourceBroker(engine, ces)
        wired = ResourceBroker(
            engine, ces, health=FakeHealth()
        )
        assert match_one(engine, plain).name == match_one(engine, wired).name
