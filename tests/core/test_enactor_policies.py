"""Enactor execution policies vs the analytical model (equations 1-4).

On an ideal substrate with constant service times T, the enactor's four
policies must land exactly on the paper's closed forms:

    NOP   -> n_D * n_W * T
    DP    -> n_W * T
    SP    -> (n_D + n_W - 1) * T
    SP+DP -> n_W * T
"""

import pytest

from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.enactor import EnactmentCancelled
from repro.model.makespan import makespans
from repro.services.base import LocalService
from repro.workflow.patterns import chain_workflow


def constant_chain(engine, n_w, T=1.0):
    def factory(name, inputs, outputs):
        return LocalService(engine, name, inputs, outputs, duration=T)

    return chain_workflow(factory, n_w)


def heterogeneous_chain(engine, times):
    """times[i][j]: duration of service i on item j (matched by value)."""

    def factory(name, inputs, outputs):
        index = int(name[1:]) - 1

        def duration(inputs_dict):
            item = inputs_dict["x"].value
            return float(times[index][item])

        return LocalService(
            engine, name, inputs, outputs,
            function=lambda x: {"y": x}, duration=duration,
        )

    return chain_workflow(factory, len(times))


CASES = [
    ("NOP", OptimizationConfig.nop()),
    ("DP", OptimizationConfig.dp()),
    ("SP", OptimizationConfig.sp()),
    ("SP+DP", OptimizationConfig.sp_dp()),
]


class TestConstantTimes:
    @pytest.mark.parametrize("label,config", CASES)
    @pytest.mark.parametrize("n_w,n_d", [(1, 1), (1, 5), (3, 1), (3, 3), (4, 7), (5, 2)])
    def test_matches_closed_form(self, engine, label, config, n_w, n_d):
        T = 2.0
        workflow = constant_chain(engine, n_w, T=T)
        result = MoteurEnactor(engine, workflow, config).run({"input": list(range(n_d))})
        expected = makespans([[T] * n_d] * n_w)[label]
        assert result.makespan == pytest.approx(expected), (label, n_w, n_d)


class TestHeterogeneousTimes:
    """Random-ish T_ij matrices: simulation must equal the model exactly."""

    TIMES = [
        [2.0, 1.0, 3.0, 1.0],
        [1.0, 4.0, 1.0, 2.0],
        [3.0, 1.0, 2.0, 5.0],
    ]

    @pytest.mark.parametrize("label,config", CASES)
    def test_matches_closed_form(self, engine, label, config):
        workflow = heterogeneous_chain(engine, self.TIMES)
        result = MoteurEnactor(engine, workflow, config).run(
            {"input": list(range(len(self.TIMES[0])))}
        )
        expected = makespans(self.TIMES)[label]
        assert result.makespan == pytest.approx(expected), label


class TestFigure6:
    """Service parallelism pays under DP when times are not constant.

    The paper's example: T(P1, D0) = 2T and T(P2, D1) = 3T; with SP the
    computations overlap, without SP the stage barrier wastes time.
    """

    TIMES = [
        [2.0, 1.0, 1.0],  # P1: D0 takes twice as long
        [1.0, 3.0, 1.0],  # P2: D1 blocked on a queue
    ]

    def test_sp_beats_dp_alone(self, engine):
        dp_wf = heterogeneous_chain(engine, self.TIMES)
        dp = MoteurEnactor(engine, dp_wf, OptimizationConfig.dp()).run(
            {"input": [0, 1, 2]}
        )
        engine2 = type(engine)()
        dsp_wf = heterogeneous_chain(engine2, self.TIMES)
        dsp = MoteurEnactor(engine2, dsp_wf, OptimizationConfig.sp_dp()).run(
            {"input": [0, 1, 2]}
        )
        assert dp.makespan == pytest.approx(5.0)  # max(2,1,1) + max(1,3,1)
        assert dsp.makespan == pytest.approx(4.0)  # max item path: D1 = 1+3
        assert dsp.makespan < dp.makespan

    def test_constant_times_make_sp_useless_under_dp(self, engine):
        # S_SDP = 1 under the constant-time hypothesis.
        wf = constant_chain(engine, 3, T=2.0)
        dp = MoteurEnactor(engine, wf, OptimizationConfig.dp()).run({"input": [0, 1, 2]})
        engine2 = type(engine)()
        wf2 = constant_chain(engine2, 3, T=2.0)
        dsp = MoteurEnactor(engine2, wf2, OptimizationConfig.sp_dp()).run(
            {"input": [0, 1, 2]}
        )
        assert dp.makespan == dsp.makespan


class TestOrdering:
    """Policy dominance: DSP <= DP <= NOP and DSP <= SP <= NOP, always."""

    TIMES = [
        [5.0, 1.0, 2.0],
        [1.0, 1.0, 4.0],
        [2.0, 3.0, 1.0],
        [1.0, 2.0, 2.0],
    ]

    def test_dominance(self):
        from repro.sim.engine import Engine

        measured = {}
        for label, config in CASES:
            engine = Engine()
            workflow = heterogeneous_chain(engine, self.TIMES)
            measured[label] = MoteurEnactor(engine, workflow, config).run(
                {"input": [0, 1, 2]}
            ).makespan
        assert measured["SP+DP"] <= measured["DP"] <= measured["NOP"]
        assert measured["SP+DP"] <= measured["SP"] <= measured["NOP"]


class TestCancellation:
    @pytest.mark.parametrize("label,config", CASES)
    def test_cancelled_run_invokes_nothing_more(self, engine, label, config):
        """Invocations parked on a service gate (no DP) or on the stage
        barrier (no SP) when the run is cancelled must not go on to call
        their service once the gate frees."""
        T, cancel_at = 10.0, 15.0
        workflow = constant_chain(engine, 2, T=T)
        enactor = MoteurEnactor(engine, workflow, config)
        completion = enactor.enact({"input": list(range(10))})
        engine.run(until=cancel_at)
        began = [processor.service.calls for processor in workflow.services()]
        enactor.cancel("operator")
        engine.run()  # drain: only the calls already executing finish
        with pytest.raises(EnactmentCancelled):
            engine.run(until=completion)
        assert sum(began) > 0
        assert [processor.service.calls for processor in workflow.services()] == began
        assert engine.now <= cancel_at + T
