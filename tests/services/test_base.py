"""Tests for the Service contract, GridData and LocalService."""

import pytest

from repro.grid.storage import LogicalFile
from repro.services.base import GridData, LocalService, ServiceError


class TestGridData:
    def test_of_wraps_plain_value(self):
        datum = GridData.of(42)
        assert datum.value == 42 and datum.file is None

    def test_of_wraps_logical_file(self):
        file = LogicalFile("gfn://x")
        datum = GridData.of(file)
        assert datum.file is file and datum.value is None

    def test_of_identity_for_grid_data(self):
        datum = GridData(value=1)
        assert GridData.of(datum) is datum

    def test_gfn_shortcut(self):
        assert GridData(file=LogicalFile("gfn://y")).gfn == "gfn://y"
        assert GridData(value=1).gfn is None

    def test_command_line_token(self):
        assert GridData(file=LogicalFile("gfn://z")).command_line_token() == "gfn://z"
        assert GridData(value=8).command_line_token() == "8"


class TestServiceContract:
    def test_requires_name(self, engine):
        with pytest.raises(ValueError):
            LocalService(engine, "", ("x",), ("y",))

    def test_duplicate_ports_rejected(self, engine):
        with pytest.raises(ValueError):
            LocalService(engine, "s", ("x", "x"), ("y",))
        with pytest.raises(ValueError):
            LocalService(engine, "s", ("x",), ("y", "y"))

    def test_missing_input_port_rejected(self, engine):
        service = LocalService(engine, "s", ("a", "b"), ("y",))
        with pytest.raises(ServiceError, match="missing"):
            service.invoke({"a": 1})

    def test_unexpected_input_port_rejected(self, engine):
        service = LocalService(engine, "s", ("a",), ("y",))
        with pytest.raises(ServiceError, match="unexpected"):
            service.invoke({"a": 1, "zzz": 2})

    def test_wrong_output_ports_fail_invocation(self, engine):
        service = LocalService(
            engine, "s", ("x",), ("y",), function=lambda x: {"wrong": 1}
        )
        event = service.invoke({"x": 1})
        with pytest.raises(ServiceError, match="produced ports"):
            engine.run(until=event)

    def test_invocation_log(self, engine):
        service = LocalService(engine, "s", ("x",), ("y",), duration=2.0)
        event, record = service.invoke_recorded({"x": 5})
        outputs = engine.run(until=event)
        assert service.calls == 1
        assert engine.now == 2.0
        assert event.value is outputs
        assert set(outputs) == {"y"}
        assert record.job_ids == ()  # a local service runs no grid job

    def test_invocation_ids_unique_across_services(self, engine):
        s1 = LocalService(engine, "a", ("x",), ("y",))
        s2 = LocalService(engine, "b", ("x",), ("y",))
        e1, r1 = s1.invoke_recorded({"x": 1})
        e2, r2 = s2.invoke_recorded({"x": 1})
        engine.run(until=e1)
        engine.run(until=e2)
        assert r1.invocation_id != r2.invocation_id

    def test_invoke_recorded_pairs_event_with_record(self, engine):
        service = LocalService(engine, "s", ("x",), ("y",), function=lambda x: {"y": x + 1})
        event, record = service.invoke_recorded({"x": 1})
        outputs = engine.run(until=event)
        assert event.value is outputs
        assert outputs["y"].value == 2
        assert record.invocation_id > 0


class TestLocalService:
    def test_function_receives_unwrapped_values(self, engine):
        service = LocalService(
            engine, "double", ("x",), ("y",), function=lambda x: {"y": 2 * x}
        )
        outputs = engine.run(until=service.invoke({"x": 21}))
        assert outputs["y"].value == 42

    def test_duration_delays_result(self, engine):
        service = LocalService(engine, "slow", ("x",), ("y",), duration=7.5)
        engine.run(until=service.invoke({"x": 1}))
        assert engine.now == 7.5

    def test_callable_duration(self, engine):
        service = LocalService(
            engine, "s", ("x",), ("y",), duration=lambda inputs: inputs["x"].value * 2.0
        )
        engine.run(until=service.invoke({"x": 3}))
        assert engine.now == 6.0

    def test_negative_duration_fails(self, engine):
        service = LocalService(engine, "s", ("x",), ("y",), duration=-1.0)
        with pytest.raises(ServiceError):
            engine.run(until=service.invoke({"x": 1}))

    def test_passthrough_without_function(self, engine):
        service = LocalService(engine, "echo", ("a",), ("a", "b"))
        outputs = engine.run(until=service.invoke({"a": 9}))
        assert outputs["a"].value == 9
        assert outputs["b"].value is None

    def test_function_error_fails_event(self, engine):
        def boom(x):
            raise RuntimeError("kaput")

        service = LocalService(engine, "s", ("x",), ("y",), function=boom)
        with pytest.raises(ServiceError, match="kaput"):
            engine.run(until=service.invoke({"x": 1}))

    def test_non_mapping_return_rejected(self, engine):
        service = LocalService(engine, "s", ("x",), ("y",), function=lambda x: 42)
        with pytest.raises(ServiceError, match="mapping"):
            engine.run(until=service.invoke({"x": 1}))

    def test_concurrent_invocations_independent(self, engine):
        service = LocalService(
            engine, "s", ("x",), ("y",), function=lambda x: {"y": x}, duration=5.0
        )
        e1 = service.invoke({"x": 1})
        e2 = service.invoke({"x": 2})
        results = engine.run(until=engine.all_of([e1, e2]))
        assert [r["y"].value for r in results] == [1, 2]
        assert engine.now == 5.0  # a bare service has no concurrency limit
