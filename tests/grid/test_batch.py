"""Tests for batch-queue scheduling policies."""

import pytest

from repro.grid.batch import FairSharePolicy, FifoPolicy
from repro.grid.job import JobDescription, JobRecord
from repro.grid.resources import QueueEntry


def entry(engine, name, owner="user", compute=1.0):
    record = JobRecord(JobDescription(name=name, owner=owner, compute_time=compute))
    return QueueEntry(record=record, completion=engine.event())


def drain(policy, count):
    out = []
    for _ in range(count):
        got = policy.get()
        assert got.triggered, "expected an entry to be available"
        out.append(got.value.record.name)
    return out


class TestFifo:
    def test_arrival_order(self, engine):
        policy = FifoPolicy(engine)
        for i in range(4):
            policy.put(entry(engine, f"j{i}"))
        assert drain(policy, 4) == ["j0", "j1", "j2", "j3"]

    def test_blocking_get_wakes_on_put(self, engine):
        policy = FifoPolicy(engine)
        got = policy.get()
        assert not got.triggered
        policy.put(entry(engine, "late"))
        assert got.triggered and got.value.record.name == "late"

    def test_double_pending_get_rejected(self, engine):
        policy = FifoPolicy(engine)
        policy.get()
        with pytest.raises(RuntimeError):
            policy.get()

    def test_len(self, engine):
        policy = FifoPolicy(engine)
        policy.put(entry(engine, "a"))
        policy.put(entry(engine, "b"))
        assert len(policy) == 2


class TestFairShare:
    def test_round_robin_over_owners(self, engine):
        policy = FairSharePolicy(engine)
        for i in range(3):
            policy.put(entry(engine, f"alice{i}", owner="alice"))
        for i in range(3):
            policy.put(entry(engine, f"bob{i}", owner="bob"))
        order = drain(policy, 6)
        assert order == ["alice0", "bob0", "alice1", "bob1", "alice2", "bob2"]

    def test_fifo_within_owner(self, engine):
        policy = FairSharePolicy(engine)
        for i in range(3):
            policy.put(entry(engine, f"j{i}", owner="solo"))
        assert drain(policy, 3) == ["j0", "j1", "j2"]

    def test_heavy_user_cannot_starve_light_user(self, engine):
        policy = FairSharePolicy(engine)
        for i in range(10):
            policy.put(entry(engine, f"heavy{i}", owner="background"))
        policy.put(entry(engine, "light", owner="app"))
        order = drain(policy, 3)
        assert "light" in order  # served within the first rotation

    def test_owner_exhaustion_removes_from_rotation(self, engine):
        policy = FairSharePolicy(engine)
        policy.put(entry(engine, "a0", owner="a"))
        policy.put(entry(engine, "b0", owner="b"))
        policy.put(entry(engine, "b1", owner="b"))
        assert drain(policy, 3) == ["a0", "b0", "b1"]


@pytest.mark.parametrize("policy_cls", [FifoPolicy, FairSharePolicy])
class TestWithdrawal:
    """remove()/entries() back job cancellation across every policy."""

    def test_entries_snapshot_covers_everything_queued(self, engine, policy_cls):
        policy = policy_cls(engine)
        queued = [entry(engine, f"j{i}", owner=f"u{i % 2}") for i in range(4)]
        for item in queued:
            policy.put(item)
        assert sorted(e.record.name for e in policy.entries()) == [
            "j0", "j1", "j2", "j3",
        ]

    def test_remove_withdraws_and_updates_len(self, engine, policy_cls):
        policy = policy_cls(engine)
        keep = entry(engine, "keep")
        gone = entry(engine, "gone", owner="other")
        policy.put(keep)
        policy.put(gone)
        assert policy.remove(gone)
        assert len(policy) == 1
        assert [e.record.name for e in policy.entries()] == ["keep"]
        assert drain(policy, 1) == ["keep"]

    def test_remove_is_idempotent_on_absent_entries(self, engine, policy_cls):
        policy = policy_cls(engine)
        present = entry(engine, "present")
        never_queued = entry(engine, "never")
        policy.put(present)
        assert not policy.remove(never_queued)
        assert policy.remove(present)
        assert not policy.remove(present)  # already dispatched/removed
        assert len(policy) == 0

    def test_removing_everything_leaves_a_clean_queue(self, engine, policy_cls):
        policy = policy_cls(engine)
        queued = [entry(engine, f"j{i}", owner=f"u{i}") for i in range(3)]
        for item in queued:
            policy.put(item)
        for item in queued:
            assert policy.remove(item)
        assert len(policy) == 0 and policy.entries() == []
        # the queue still works after a full withdrawal
        policy.put(entry(engine, "fresh"))
        assert drain(policy, 1) == ["fresh"]
