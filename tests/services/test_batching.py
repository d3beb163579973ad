"""Tests for intra-service job batching (the Section 5.4 future work)."""

import pytest

from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site
from repro.grid.storage import LogicalFile, StorageElement
from repro.grid.transfer import NetworkModel
from repro.services.base import GridData, LocalService, ServiceError
from repro.services.batching import BatchingService
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
)
from repro.services.wrapper import GenericWrapperService
from repro.util.rng import RandomStreams


def overhead_grid(engine, streams, overhead=100.0, slots_infinite=True):
    ce = ComputingElement(engine, "ce", "s0", infinite=True)
    return Grid(
        engine,
        streams,
        sites=[Site("s0", [ce], StorageElement("se", "s0"))],
        overhead=OverheadModel.from_values(submission=overhead),
        network=NetworkModel.instantaneous(),
    )


def wrapped(engine, grid, compute=10.0):
    descriptor = ExecutableDescriptor(
        name="tool",
        access=AccessMethod("URL", "http://host"),
        value="tool",
        inputs=(InputSpec("x", "-i", AccessMethod("GFN")),),
        outputs=(OutputSpec("y", "-o"),),
    )
    return GenericWrapperService(
        engine, grid, descriptor,
        program=lambda x: {"y": (x or 0) * 10}, compute_time=compute,
    )


class TestConstruction:
    def test_name_and_ports(self, engine, ideal_grid):
        batching = BatchingService(engine, wrapped(engine, ideal_grid), batch_size=3)
        assert batching.name == "tool[x3]"
        assert batching.input_ports == ("x",)
        assert batching.output_ports == ("y",)

    def test_only_wrappers_batchable(self, engine):
        local = LocalService(engine, "local", ("x",), ("y",))
        with pytest.raises(ServiceError, match="generic-wrapper"):
            BatchingService(engine, local, batch_size=2)

    def test_validation(self, engine, ideal_grid):
        inner = wrapped(engine, ideal_grid)
        with pytest.raises(ValueError):
            BatchingService(engine, inner, batch_size=0)
        with pytest.raises(ValueError):
            BatchingService(engine, inner, batch_size=2, max_wait=-1.0)


class TestBatchExecution:
    def test_full_batch_is_one_job_one_overhead(self, engine, streams):
        grid = overhead_grid(engine, streams, overhead=100.0)
        batching = BatchingService(engine, wrapped(engine, grid, compute=10.0), batch_size=3)
        events = [batching.invoke({"x": GridData(i)}) for i in range(3)]
        results = engine.run(until=engine.all_of(events))
        assert [r["y"].value for r in results] == [0, 10, 20]
        assert len(grid.records) == 1  # one job for three invocations
        # one overhead (100) + summed compute (30)
        assert engine.now == pytest.approx(130.0)
        assert grid.records[0].tags["members"] == 3

    def test_command_lines_chained(self, engine, streams, submitted):
        grid = overhead_grid(engine, streams, overhead=0.0)
        batching = BatchingService(engine, wrapped(engine, grid), batch_size=2)
        jobs = submitted(grid)
        events = [batching.invoke({"x": GridData(i)}) for i in range(2)]
        engine.run(until=engine.all_of(events))
        line = jobs[0].command_line
        assert line.count("tool -i") == 2 and " && " in line

    def test_each_member_gets_its_own_outputs(self, engine, streams):
        grid = overhead_grid(engine, streams, overhead=0.0)
        batching = BatchingService(engine, wrapped(engine, grid), batch_size=4)
        events = [batching.invoke({"x": GridData(i)}) for i in range(4)]
        results = engine.run(until=engine.all_of(events))
        values = [r["y"].value for r in results]
        assert values == [0, 10, 20, 30]
        files = {r["y"].file.gfn for r in results}
        assert len(files) == 4  # distinct minted outputs per member

    def test_overflow_starts_new_batch(self, engine, streams):
        grid = overhead_grid(engine, streams, overhead=50.0)
        batching = BatchingService(engine, wrapped(engine, grid, compute=10.0), batch_size=2)
        events = [batching.invoke({"x": GridData(i)}) for i in range(5)]
        # fifth member sits in a forming batch; flush it explicitly
        batching.flush()
        results = engine.run(until=engine.all_of(events))
        assert len(grid.records) == 3  # 2 + 2 + 1
        assert [r["y"].value for r in results] == [0, 10, 20, 30, 40]
        assert batching.batches_submitted == 3

    def test_max_wait_flushes_partial_batch(self, engine, streams):
        grid = overhead_grid(engine, streams, overhead=0.0)
        batching = BatchingService(
            engine, wrapped(engine, grid, compute=10.0), batch_size=10, max_wait=5.0
        )
        event = batching.invoke({"x": GridData(7)})
        result = engine.run(until=event)
        assert result["y"].value == 70
        assert engine.now == pytest.approx(15.0)  # 5 wait + 10 compute
        assert len(grid.records) == 1

    def test_batch_size_one_degenerates_to_plain_wrapper(self, engine, streams):
        grid = overhead_grid(engine, streams, overhead=20.0)
        batching = BatchingService(engine, wrapped(engine, grid, compute=5.0), batch_size=1)
        events = [batching.invoke({"x": GridData(i)}) for i in range(3)]
        engine.run(until=engine.all_of(events))
        assert len(grid.records) == 3
        assert engine.now == pytest.approx(25.0)  # fully parallel jobs

    def test_job_ids_shared_across_batch_members(self, engine, streams):
        grid = overhead_grid(engine, streams, overhead=0.0)
        batching = BatchingService(engine, wrapped(engine, grid), batch_size=2)
        ev1, rec1 = batching.invoke_recorded({"x": GridData(1)})
        ev2, rec2 = batching.invoke_recorded({"x": GridData(2)})
        engine.run(until=engine.all_of([ev1, ev2]))
        assert rec1.job_ids == rec2.job_ids
        assert rec1.job_ids == (grid.records[0].job_id,)

    def test_input_files_deduplicated_across_members(self, engine, streams, submitted):
        grid = overhead_grid(engine, streams, overhead=0.0)
        shared = LogicalFile("gfn://shared/input")
        grid.add_input_file(shared)
        batching = BatchingService(engine, wrapped(engine, grid), batch_size=2)
        jobs = submitted(grid)
        events = [
            batching.invoke({"x": GridData(i, shared)}) for i in range(2)
        ]
        engine.run(until=engine.all_of(events))
        staged = jobs[0].input_files
        assert staged.count(shared.gfn) == 1


class TestGranularityTradeoffEndToEnd:
    def test_batching_beats_no_batching_under_variable_overhead(self, engine):
        """The E12 trade-off, realized in the actual execution stack."""
        from repro.util.distributions import LogNormal

        def run(batch_size, seed=5):
            from repro.sim.engine import Engine

            eng = Engine()
            streams = RandomStreams(seed=seed)
            ce = ComputingElement(eng, "ce", "s0", infinite=True)
            grid = Grid(
                eng,
                streams,
                sites=[Site("s0", [ce], StorageElement("se", "s0"))],
                overhead=OverheadModel(
                    queue_extra=LogNormal(mean_value=600.0, sigma_log=0.9)
                ),
                network=NetworkModel.instantaneous(),
            )
            service = BatchingService(
                eng, wrapped(eng, grid, compute=60.0), batch_size=batch_size
            )
            events = [service.invoke({"x": GridData(i)}) for i in range(16)]
            service.flush()
            eng.run(until=eng.all_of(events))
            return eng.now

        unbatched = run(1)
        batched = run(4)
        fully_serial = run(16)
        # moderate batching avoids the max over 16 heavy-tailed draws...
        assert batched < unbatched
        # ...without collapsing into one fully serialized job
        assert batched < fully_serial
