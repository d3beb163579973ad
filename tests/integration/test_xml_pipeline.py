"""Full XML pipeline: the paper's re-execution story.

Section 4.1: the input-data-set language exists "to save and store the
input data set in order to be able to re-execute workflows on the same
data set".  This test saves both the workflow (Scufl) and the data set
(XML), reloads them, re-binds, re-enacts — and gets identical results.
"""


from repro.core import MoteurEnactor, OptimizationConfig
from repro.services.base import LocalService
from repro.services.registry import ServiceRegistry
from repro.sim.engine import Engine
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.datasets import InputDataSet, dataset_from_xml, dataset_to_xml
from repro.workflow.scufl import bind_services, workflow_from_scufl, workflow_to_scufl


def build_registry(engine):
    registry = ServiceRegistry()
    registry.register(
        LocalService(engine, "scale", ("x",), ("y",),
                     function=lambda x: {"y": float(x) * 2}, duration=3.0)
    )
    registry.register(
        LocalService(engine, "shift", ("x",), ("y",),
                     function=lambda x: {"y": x + 1}, duration=2.0)
    )
    return registry


def build_workflow(engine):
    registry = build_registry(engine)
    symbolic = (
        WorkflowBuilder("persisted")
        .abstract_service("scale", ("x",), ("y",))
        .abstract_service("shift", ("x",), ("y",))
        .source("numbers")
        .sink("out")
        .connect("numbers:output", "scale:x")
        .connect("scale:y", "shift:x")
        .connect("shift:y", "out:input")
        .build()
    )
    return symbolic, registry


class TestReExecution:
    def test_save_reload_re_enact(self, tmp_path):
        # First execution.
        engine = Engine()
        workflow, registry = build_workflow(engine)
        dataset = InputDataSet.from_values("run1", numbers=[1, 2, 3])
        result1 = MoteurEnactor(
            engine, bind_services(workflow, registry), OptimizationConfig.sp_dp()
        ).run(dataset)

        # Persist both artifacts.
        workflow_file = tmp_path / "workflow.scufl.xml"
        dataset_file = tmp_path / "dataset.xml"
        workflow_file.write_text(workflow_to_scufl(workflow))
        dataset_file.write_text(dataset_to_xml(dataset))

        # Re-execution from disk on a fresh engine.
        engine2 = Engine()
        registry2 = build_registry(engine2)
        reloaded_wf = workflow_from_scufl(workflow_file.read_text())
        reloaded_ds = dataset_from_xml(dataset_file.read_text())
        # the XML dialect stores values as strings; the first service
        # coerces with float() so the round-trip stays value-exact
        result2 = MoteurEnactor(
            engine2, bind_services(reloaded_wf, registry2), OptimizationConfig.sp_dp()
        ).run(reloaded_ds)

        assert result1.output_values("out") == result2.output_values("out") == [3.0, 5.0, 7.0]
        assert result1.makespan == result2.makespan

    def test_reloaded_dataset_restricted_resweep(self, tmp_path):
        """The harness pattern: one master data set, swept by size."""
        engine = Engine()
        workflow, registry = build_workflow(engine)
        master = InputDataSet.from_values("master", numbers=list(range(10)))
        text = dataset_to_xml(master)
        reloaded = dataset_from_xml(text)
        sizes = []
        for count in (2, 5, 10):
            subset = InputDataSet("subset")
            for item in reloaded.items("numbers")[:count]:
                subset.add("numbers", item)
            eng = Engine()
            reg = build_registry(eng)
            result = MoteurEnactor(
                eng, bind_services(workflow, reg), OptimizationConfig.sp_dp()
            ).run(subset)
            sizes.append(len(result.output_values("out")))
        assert sizes == [2, 5, 10]
