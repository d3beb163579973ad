"""Tests for the generic wrapper service (Section 3.6)."""

import pytest

from repro.grid.storage import LogicalFile
from repro.services.base import GridData, ServiceError
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
    SandboxSpec,
)
from repro.services.wrapper import GenericWrapperService
from repro.util.units import MEBIBYTE


def simple_descriptor(name="tool", with_sandbox=False):
    sandboxes = ()
    if with_sandbox:
        sandboxes = (
            SandboxSpec("lib", AccessMethod("URL", "http://host"), "libtool.so"),
        )
    return ExecutableDescriptor(
        name=name,
        access=AccessMethod("URL", "http://host"),
        value=name,
        inputs=(
            InputSpec("data", "-i", AccessMethod("GFN")),
            InputSpec("level", "-l"),
        ),
        outputs=(OutputSpec("result", "-o"),),
        sandboxes=sandboxes,
    )


@pytest.fixture
def input_file(ideal_grid):
    file = LogicalFile("gfn://in/data0", size=2 * MEBIBYTE)
    ideal_grid.add_input_file(file)
    return file


class TestWrapperExecution:
    def test_runs_as_one_grid_job(self, engine, ideal_grid, input_file):
        service = GenericWrapperService(
            engine, ideal_grid, simple_descriptor(),
            program=lambda data, level: {"result": f"{data}@{level}"},
            compute_time=50.0,
        )
        outputs = engine.run(
            until=service.invoke({"data": GridData("payload", input_file), "level": 3})
        )
        assert outputs["result"].value == "payload@3"
        assert engine.now == 50.0
        assert len(ideal_grid.records) == 1

    def test_ports_mirror_descriptor(self, engine, ideal_grid):
        service = GenericWrapperService(engine, ideal_grid, simple_descriptor())
        assert service.input_ports == ("data", "level")
        assert service.output_ports == ("result",)

    def test_command_line_composed_dynamically(self, engine, ideal_grid, input_file, submitted):
        service = GenericWrapperService(engine, ideal_grid, simple_descriptor())
        jobs = submitted(ideal_grid)
        engine.run(until=service.invoke({"data": GridData("x", input_file), "level": 9}))
        line = jobs[-1].command_line
        assert line.startswith("tool -i gfn://in/data0 -l 9 -o gfn://")

    def test_output_files_minted_and_registered(self, engine, ideal_grid, input_file):
        service = GenericWrapperService(
            engine, ideal_grid, simple_descriptor(),
            output_sizes={"result": 3 * MEBIBYTE},
        )
        outputs = engine.run(
            until=service.invoke({"data": GridData("x", input_file), "level": 1})
        )
        produced = outputs["result"].file
        assert produced is not None
        assert ideal_grid.catalog.knows(produced.gfn)
        assert ideal_grid.catalog.lookup(produced.gfn).size == 3 * MEBIBYTE

    def test_sandboxes_published_once_and_staged(self, engine, ideal_grid, input_file, submitted):
        service = GenericWrapperService(
            engine, ideal_grid, simple_descriptor(with_sandbox=True)
        )
        jobs = submitted(ideal_grid)
        assert len(service.sandbox_gfns) == 1
        assert ideal_grid.catalog.knows(service.sandbox_gfns[0])
        engine.run(until=service.invoke({"data": GridData("x", input_file), "level": 1}))
        staged = jobs[-1].input_files
        assert service.sandbox_gfns[0] in staged
        assert input_file.gfn in staged

    def test_none_parameter_is_allowed(self, engine, ideal_grid):
        service = GenericWrapperService(engine, ideal_grid, simple_descriptor())
        outputs = engine.run(
            until=service.invoke({"data": GridData("x"), "level": None})
        )
        assert "result" in outputs

    def test_missing_input_port_rejected(self, engine, ideal_grid):
        service = GenericWrapperService(engine, ideal_grid, simple_descriptor())
        with pytest.raises(ServiceError, match="missing"):
            service.invoke({"data": GridData("x")})

    def test_value_only_input_needs_no_transfer(self, engine, ideal_grid, submitted):
        service = GenericWrapperService(
            engine, ideal_grid, simple_descriptor(),
            program=lambda data, level: {"result": data},
        )
        jobs = submitted(ideal_grid)
        outputs = engine.run(
            until=service.invoke({"data": GridData("inline"), "level": 0})
        )
        assert outputs["result"].value == "inline"
        assert jobs[-1].input_files == ()

    def test_program_return_must_be_mapping(self, engine, ideal_grid, input_file):
        service = GenericWrapperService(
            engine, ideal_grid, simple_descriptor(), program=lambda data, level: 42
        )
        with pytest.raises(ServiceError, match="mapping"):
            engine.run(until=service.invoke({"data": GridData("x", input_file), "level": 1}))

    def test_no_program_yields_none_values(self, engine, ideal_grid, input_file):
        service = GenericWrapperService(engine, ideal_grid, simple_descriptor())
        outputs = engine.run(
            until=service.invoke({"data": GridData("x", input_file), "level": 1})
        )
        assert outputs["result"].value is None
        assert outputs["result"].file is not None

    def test_job_names_distinct_per_invocation(self, engine, ideal_grid, input_file):
        service = GenericWrapperService(engine, ideal_grid, simple_descriptor())
        e1 = service.invoke({"data": GridData("a", input_file), "level": 1})
        e2 = service.invoke({"data": GridData("b", input_file), "level": 2})
        engine.run(until=engine.all_of([e1, e2]))
        names = {r.name for r in ideal_grid.records}
        assert len(names) == 2

    def test_job_ids_recorded_on_invocation(self, engine, ideal_grid, input_file):
        service = GenericWrapperService(engine, ideal_grid, simple_descriptor())
        event, record = service.invoke_recorded(
            {"data": GridData("x", input_file), "level": 1}
        )
        engine.run(until=event)
        assert record.job_ids == (ideal_grid.records[-1].job_id,)

    def test_stage_in_cost_on_slow_network(self, engine, cluster_grid):
        file = LogicalFile("gfn://in/big", size=100 * MEBIBYTE)
        cluster_grid.add_input_file(file)
        service = GenericWrapperService(
            engine, cluster_grid, simple_descriptor(), compute_time=1.0
        )
        engine.run(until=service.invoke({"data": GridData("x", file), "level": 1}))
        record = cluster_grid.records[-1]
        assert record.stage_in_time > 0
