"""Public-API surface tests: the imports the README promises exist."""

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_readme_imports(self):
        from repro import (
            Engine,
            EnactmentResult,
            InputDataSet,
            MoteurEnactor,
            OptimizationConfig,
            WorkflowBuilder,
        )

        assert all(
            cls is not None
            for cls in (Engine, EnactmentResult, InputDataSet, MoteurEnactor,
                        OptimizationConfig, WorkflowBuilder)
        )

    def test_readme_quickstart_runs(self):
        """The README's second quickstart snippet, verbatim."""
        from repro import Engine, MoteurEnactor, OptimizationConfig, WorkflowBuilder
        from repro.services.base import LocalService

        engine = Engine()
        double = LocalService(engine, "double", ("x",), ("y",),
                              function=lambda x: {"y": 2 * x}, duration=10.0)
        wf = (WorkflowBuilder("demo")
              .source("numbers").service("double", double).sink("out")
              .connect("numbers:output", "double:x")
              .connect("double:y", "out:input")
              .build())
        result = MoteurEnactor(engine, wf, OptimizationConfig.dp()).run(
            {"numbers": [1, 2, 3]}
        )
        assert result.output_values("out") == [2, 4, 6]
        assert result.makespan == 10.0


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module,names",
        [
            ("repro.sim", ["Engine", "Event", "Timeout", "Process", "Resource"]),
            ("repro.grid", ["Grid", "JobDescription", "JobState", "LogicalFile",
                            "ideal_testbed", "cluster_testbed", "egee_like_testbed"]),
            ("repro.services", ["Service", "GridData", "GenericWrapperService",
                                "CompositeService", "BatchingService",
                                "descriptor_from_xml", "descriptor_to_xml"]),
            ("repro.workflow", ["Workflow", "WorkflowBuilder", "InputDataSet",
                                "workflow_from_scufl", "workflow_to_scufl",
                                "validate_workflow"]),
            ("repro.core", ["MoteurEnactor", "OptimizationConfig", "HistoryTree",
                            "DataToken", "NO_DATA", "ExecutionTrace", "group_workflow"]),
            ("repro.model", ["makespan_sequential", "makespan_dp", "makespan_sp",
                             "makespan_dsp", "speedup", "y_intercept_ratio",
                             "slope_ratio"]),
            ("repro.taskbased", ["TaskDescription", "render_jdl", "expand_workflow",
                                 "DagmanExecutor"]),
            ("repro.apps", ["BronzeStandardApplication", "ImageDatabase",
                            "RigidTransform", "mean_transform"]),
            ("repro.experiments", ["run_sweep", "run_configuration", "PAPER_TABLE1",
                                   "job_statistics", "overhead_breakdown"]),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_documented_names_importable(self, module, names):
        import importlib

        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module} lacks {name}"
            assert name in mod.__all__, f"{module}.__all__ lacks {name}"

    def test_no_import_cycles(self):
        # Importing everything in one process must succeed from scratch.
        import subprocess
        import sys

        code = (
            "import repro, repro.sim, repro.grid, repro.services, repro.workflow, "
            "repro.core, repro.model, repro.taskbased, repro.apps, repro.experiments; "
            "print('ok')"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"
