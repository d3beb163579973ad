"""Tests for virtual grouped services (Figure 7)."""

import pytest

from repro.grid.storage import LogicalFile
from repro.services.base import GridData, LocalService, ServiceError
from repro.services.composite import CompositeService
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
)
from repro.services.wrapper import GenericWrapperService


def wrapper(engine, grid, name, compute=10.0, extra_input=None):
    inputs = [InputSpec("x", "-i", AccessMethod("GFN"))]
    if extra_input:
        inputs.append(InputSpec(extra_input, "-e", AccessMethod("GFN")))
    descriptor = ExecutableDescriptor(
        name=name,
        access=AccessMethod("URL", "http://host"),
        value=name,
        inputs=tuple(inputs),
        outputs=(OutputSpec("y", "-o"),),
    )

    if extra_input:
        def program(x, **kw):
            return {"y": (x or 0) + 1}
    else:
        def program(x):
            return {"y": (x or 0) + 1}

    return GenericWrapperService(
        engine, grid, descriptor, program=program, compute_time=compute
    )


@pytest.fixture
def staged_file(ideal_grid):
    file = LogicalFile("gfn://in/item")
    ideal_grid.add_input_file(file)
    return file


class TestConstruction:
    def test_ports_derived_from_links(self, engine, ideal_grid):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B")
        composite = CompositeService(
            engine, [a, b], internal_links={(1, "x"): (0, "y")}
        )
        assert composite.input_ports == ("x",)
        assert composite.output_ports == ("y",)
        assert composite.name == "A+B"

    def test_colliding_external_ports_qualified(self, engine, ideal_grid):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B", extra_input="side")
        composite = CompositeService(
            engine, [a, b], internal_links={(1, "x"): (0, "y")}
        )
        # A.x exposed as "x"; B.side exposed bare since unique
        assert set(composite.input_ports) == {"x", "side"}

    def test_reverse_lookups(self, engine, ideal_grid):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B")
        composite = CompositeService(engine, [a, b], internal_links={(1, "x"): (0, "y")})
        assert composite.public_input_name(0, "x") == "x"
        assert composite.public_output_name(1, "y") == "y"
        with pytest.raises(KeyError):
            composite.public_input_name(1, "x")  # internal, not exposed

    def test_rejects_non_wrapper_stages(self, engine):
        local = LocalService(engine, "local", ("x",), ("y",))
        with pytest.raises(ServiceError, match="generic-wrapper"):
            CompositeService(engine, [local])

    def test_rejects_backward_links(self, engine, ideal_grid):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B")
        with pytest.raises(ServiceError, match="earlier"):
            CompositeService(engine, [a, b], internal_links={(0, "x"): (1, "y")})

    def test_rejects_unknown_ports(self, engine, ideal_grid):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B")
        with pytest.raises(ServiceError, match="no input port"):
            CompositeService(engine, [a, b], internal_links={(1, "zzz"): (0, "y")})

    def test_rejects_empty(self, engine):
        with pytest.raises(ServiceError):
            CompositeService(engine, [])


class TestExecution:
    def test_single_job_pays_one_overhead(self, engine, streams, staged_file):
        # Build on a grid with constant overhead to observe the saving.
        from repro.grid.overhead import OverheadModel
        from repro.grid.middleware import Grid
        from repro.grid.resources import ComputingElement, Site
        from repro.grid.storage import StorageElement
        from repro.grid.transfer import NetworkModel

        ce = ComputingElement(engine, "ce", "s0", infinite=True)
        grid = Grid(
            engine,
            streams,
            sites=[Site("s0", [ce], StorageElement("se", "s0"))],
            overhead=OverheadModel.from_values(submission=100.0),
            network=NetworkModel.instantaneous(),
        )
        file = LogicalFile("gfn://in/f")
        grid.add_input_file(file)
        a = wrapper(engine, grid, "A", compute=10.0)
        b = wrapper(engine, grid, "B", compute=20.0)
        composite = CompositeService(engine, [a, b], internal_links={(1, "x"): (0, "y")})
        outputs = engine.run(until=composite.invoke({"x": GridData(0, file)}))
        # one overhead (100) + summed compute (30), not two overheads
        assert engine.now == pytest.approx(130.0)
        assert outputs["y"].value == 2
        assert len(grid.records) == 1

    def test_command_lines_joined_with_shell_sequencing(
        self, engine, ideal_grid, staged_file, submitted
    ):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B")
        composite = CompositeService(engine, [a, b], internal_links={(1, "x"): (0, "y")})
        jobs = submitted(ideal_grid)
        engine.run(until=composite.invoke({"x": GridData(0, staged_file)}))
        line = jobs[-1].command_line
        assert " && " in line
        assert line.startswith("A -i gfn://in/item -o ./A.y.tmp && B -i ./A.y.tmp -o gfn://")

    def test_intermediate_file_not_registered(self, engine, ideal_grid, staged_file):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B")
        composite = CompositeService(engine, [a, b], internal_links={(1, "x"): (0, "y")})
        before = len(ideal_grid.catalog)
        engine.run(until=composite.invoke({"x": GridData(0, staged_file)}))
        # only the final output was registered (+1), not A's intermediate
        assert len(ideal_grid.catalog) == before + 1

    def test_values_thread_through_stages(self, engine, ideal_grid, staged_file):
        stages = [wrapper(engine, ideal_grid, f"S{i}") for i in range(4)]
        links = {(i, "x"): (i - 1, "y") for i in range(1, 4)}
        composite = CompositeService(engine, stages, internal_links=links)
        outputs = engine.run(until=composite.invoke({"x": GridData(0, staged_file)}))
        assert outputs["y"].value == 4  # +1 per stage

    def test_grouped_job_tagged(self, engine, ideal_grid, staged_file):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B")
        composite = CompositeService(engine, [a, b], internal_links={(1, "x"): (0, "y")})
        engine.run(until=composite.invoke({"x": GridData(0, staged_file)}))
        tags = ideal_grid.records[-1].tags
        assert tags["grouped"] is True and tags["stages"] == 2

    def test_compute_time_is_sum_of_stages(self, engine, ideal_grid, staged_file):
        a = wrapper(engine, ideal_grid, "A", compute=15.0)
        b = wrapper(engine, ideal_grid, "B", compute=25.0)
        composite = CompositeService(engine, [a, b], internal_links={(1, "x"): (0, "y")})
        engine.run(until=composite.invoke({"x": GridData(0, staged_file)}))
        assert engine.now == pytest.approx(40.0)

    def test_missing_stage_input_rejected(self, engine, ideal_grid):
        a = wrapper(engine, ideal_grid, "A")
        b = wrapper(engine, ideal_grid, "B", extra_input="side")
        composite = CompositeService(engine, [a, b], internal_links={(1, "x"): (0, "y")})
        with pytest.raises(ServiceError, match="missing"):
            engine.run(until=composite.invoke({"x": GridData(0)}))
