"""Unit tests for the pure control-plane logic layer."""

import pytest

from repro.service.logic import (
    FairShareLedger,
    RunRecord,
    RunState,
    TenantSpec,
    TransitionError,
    pick_next_explained,
    quota_headroom,
    validate_transition,
)


def queued_run(run_id, tenant, seq, not_before=0.0, jobs=6):
    return RunRecord(
        run_id=run_id,
        tenant=tenant,
        seq=seq,
        state=RunState.QUEUED,
        not_before=not_before,
        jobs_estimate=jobs,
    )


class TestLifecycle:
    def test_legal_path_to_done(self):
        run = RunRecord(run_id="r1", tenant="a")
        run = run.advance(RunState.QUEUED)
        run = run.advance(RunState.RUNNING)
        run = run.advance(RunState.DONE)
        assert run.state.terminal

    def test_queued_run_may_be_cancelled(self):
        run = queued_run("r1", "a", 1)
        assert run.advance(RunState.CANCELLED).state is RunState.CANCELLED

    def test_illegal_transitions_raise(self):
        with pytest.raises(TransitionError):
            validate_transition(RunState.SUBMITTED, RunState.DONE)
        with pytest.raises(TransitionError):
            validate_transition(RunState.DONE, RunState.RUNNING)

    def test_terminal_states_have_no_exits(self):
        for state in (RunState.DONE, RunState.FAILED, RunState.CANCELLED):
            for target in RunState:
                with pytest.raises(TransitionError):
                    validate_transition(state, target)

    def test_record_roundtrips_through_dict(self):
        run = queued_run("r1", "a", 3, not_before=12.5)
        run.result = {"makespan": 1.0}
        assert RunRecord.from_dict(run.to_dict()) == run


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="")
        with pytest.raises(ValueError):
            TenantSpec(name="a", weight=0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", max_concurrent_runs=0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", max_grid_jobs=0)

    def test_roundtrip(self):
        spec = TenantSpec(name="a", weight=2.0, max_concurrent_runs=3, max_grid_jobs=24)
        assert TenantSpec.from_dict(spec.to_dict()) == spec

    def test_quota_headroom(self):
        spec = TenantSpec(name="a", max_concurrent_runs=2, max_grid_jobs=12)
        assert quota_headroom(spec, running_runs=1, jobs_in_flight=6, jobs_estimate=6) is None
        assert "max_concurrent_runs" in quota_headroom(spec, 2, 0, 6)
        assert "max_grid_jobs" in quota_headroom(spec, 1, 8, 6)


class TestFairShareLedger:
    def test_usage_decays_with_half_life(self):
        ledger = FairShareLedger(half_life=100.0)
        ledger.charge("a", 80.0, now=0.0)
        assert ledger.usage("a", 0.0) == pytest.approx(80.0)
        assert ledger.usage("a", 100.0) == pytest.approx(40.0)
        assert ledger.usage("a", 200.0) == pytest.approx(20.0)

    def test_charges_accumulate_on_decayed_base(self):
        ledger = FairShareLedger(half_life=100.0)
        ledger.charge("a", 80.0, now=0.0)
        total = ledger.charge("a", 10.0, now=100.0)
        assert total == pytest.approx(50.0)

    def test_snapshot_restores(self):
        ledger = FairShareLedger(half_life=100.0)
        ledger.charge("a", 80.0, now=0.0)
        clone = FairShareLedger(half_life=100.0, initial=ledger.snapshot())
        assert clone.usage("a", 100.0) == pytest.approx(40.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            FairShareLedger().charge("a", -1.0, now=0.0)


class TestPickNext:
    def specs(self):
        return {
            "a": TenantSpec(name="a", weight=1.0, max_concurrent_runs=2),
            "b": TenantSpec(name="b", weight=1.0, max_concurrent_runs=2),
        }

    def test_fifo_takes_lowest_seq(self):
        queue = [queued_run("r2", "b", 2), queued_run("r1", "a", 1)]
        pick = pick_next_explained(
            queue, self.specs(), {}, {}, FairShareLedger(), 0.0, policy="fifo"
        ).pick
        assert pick.run_id == "r1"

    def test_fair_share_prefers_low_usage_tenant(self):
        ledger = FairShareLedger(half_life=100.0)
        ledger.charge("a", 500.0, now=0.0)
        queue = [queued_run("r1", "a", 1), queued_run("r2", "b", 2)]
        pick = pick_next_explained(queue, self.specs(), {}, {}, ledger, 0.0).pick
        assert pick.tenant == "b"

    def test_weight_scales_the_share(self):
        specs = {
            "a": TenantSpec(name="a", weight=4.0),
            "b": TenantSpec(name="b", weight=1.0),
        }
        ledger = FairShareLedger(half_life=1000.0)
        ledger.charge("a", 200.0, now=0.0)
        ledger.charge("b", 100.0, now=0.0)
        queue = [queued_run("r1", "a", 1), queued_run("r2", "b", 2)]
        # a's effective share 200/4=50 beats b's 100/1=100
        assert pick_next_explained(queue, specs, {}, {}, ledger, 0.0).pick.tenant == "a"

    def test_provisional_charge_breaks_bursts(self):
        # Both tenants at zero usage, but a has a run in flight with a
        # provisional charge: b goes next despite a's lower seq.
        queue = [queued_run("r2", "a", 2), queued_run("r3", "b", 3)]
        pick = pick_next_explained(
            queue,
            self.specs(),
            {"a": 1},
            {},
            FairShareLedger(),
            0.0,
            provisional={"a": 600.0},
        ).pick
        assert pick.tenant == "b"

    def test_not_before_gates_eligibility(self):
        queue = [queued_run("r1", "a", 1, not_before=50.0)]
        ledger = FairShareLedger()
        assert pick_next_explained(queue, self.specs(), {}, {}, ledger, 0.0).pick is None
        assert pick_next_explained(queue, self.specs(), {}, {}, ledger, 50.0).pick is not None

    def test_quota_blocked_tenant_is_skipped(self):
        queue = [queued_run("r1", "a", 1), queued_run("r2", "b", 2)]
        pick = pick_next_explained(
            queue, self.specs(), {"a": 2}, {}, FairShareLedger(), 0.0, policy="fifo"
        ).pick
        assert pick.tenant == "b"

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            pick_next_explained(
                [], self.specs(), {}, {}, FairShareLedger(), 0.0, policy="lottery"
            )
