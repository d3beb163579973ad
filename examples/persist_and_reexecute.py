#!/usr/bin/env python
"""Persisting workflows and data sets as XML, then re-executing.

The paper's two document languages in action (Section 4.1): the
Scufl-dialect workflow description and the input-data-set language,
whose stated purpose is "to save and store the input data set in order
to be able to re-execute workflows on the same data set".

The second half shows what that re-execution costs with the
provenance-keyed result cache: a cold run persists every invocation
result to a :class:`~repro.cache.FileStore`; a warm run — fresh engine,
fresh enactor, same documents — replays entirely from disk in zero
simulated time.

Run:  python examples/persist_and_reexecute.py
"""

import tempfile
from pathlib import Path

from repro.cache import FileStore, ResultCache
from repro.core import MoteurEnactor, OptimizationConfig
from repro.services.base import LocalService
from repro.services.registry import ServiceRegistry
from repro.sim.engine import Engine
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.datasets import InputDataSet, dataset_from_xml, dataset_to_xml
from repro.workflow.scufl import bind_services, workflow_from_scufl, workflow_to_scufl


def make_registry(engine: Engine) -> ServiceRegistry:
    """The site-local service implementations the documents refer to."""
    registry = ServiceRegistry()
    registry.register(
        LocalService(engine, "threshold", ("image",), ("mask",),
                     function=lambda image: {"mask": f"mask({image})"}, duration=4.0),
        description="binary thresholding",
    )
    registry.register(
        LocalService(engine, "measure", ("mask",), ("volume",),
                     function=lambda mask: {"volume": len(str(mask))}, duration=2.0),
        description="volume measurement",
    )
    return registry


def main() -> None:
    # -- author the symbolic workflow and a data set --------------------
    workflow = (
        WorkflowBuilder("volumetry")
        .source("scans")
        .abstract_service("threshold", ("image",), ("mask",))
        .abstract_service("measure", ("mask",), ("volume",))
        .sink("volumes")
        .connect("scans:output", "threshold:image")
        .connect("threshold:mask", "measure:mask")
        .connect("measure:volume", "volumes:input")
        .build()
    )
    dataset = InputDataSet.from_values("cohort-3", scans=["p01-t0", "p02-t0", "p03-t0"])

    with tempfile.TemporaryDirectory() as tmp:
        workflow_path = Path(tmp) / "volumetry.scufl.xml"
        dataset_path = Path(tmp) / "cohort-3.xml"
        workflow_path.write_text(workflow_to_scufl(workflow))
        dataset_path.write_text(dataset_to_xml(dataset))
        print(f"saved {workflow_path.name} ({workflow_path.stat().st_size} bytes)")
        print(f"saved {dataset_path.name} ({dataset_path.stat().st_size} bytes)\n")
        print("--- the Scufl document ---")
        print(workflow_path.read_text())
        print("\n--- the data-set document ---")
        print(dataset_path.read_text())

        # -- somewhere else, later: reload and re-execute ----------------
        engine = Engine()
        reloaded_workflow = workflow_from_scufl(workflow_path.read_text())
        reloaded_dataset = dataset_from_xml(dataset_path.read_text())
        bound = bind_services(reloaded_workflow, make_registry(engine))
        result = MoteurEnactor(engine, bound, OptimizationConfig.sp_dp()).run(
            reloaded_dataset
        )
        print("\nre-executed from disk:")
        print(f"  volumes: {result.output_values('volumes')}")
        print(f"  makespan: {result.makespan:.0f}s "
              f"({result.invocation_count} invocations)")

        # -- cold -> warm: memoized re-execution --------------------------
        cache_dir = Path(tmp) / "result-cache"

        def enact(tag: str) -> None:
            """A fresh 'process': new engine, new services, new enactor —
            only the persisted documents and the cache directory carry
            over."""
            run_engine = Engine()
            run_workflow = bind_services(
                workflow_from_scufl(workflow_path.read_text()),
                make_registry(run_engine),
            )
            run_dataset = dataset_from_xml(dataset_path.read_text())
            store = FileStore(cache_dir)
            run = MoteurEnactor(
                run_engine, run_workflow, OptimizationConfig.sp_dp(),
                cache=ResultCache(store=store),
            ).run(run_dataset)
            store.close()
            stats = run.cache_stats.total
            print(f"  {tag}: makespan {run.makespan:.0f}s, "
                  f"hits={stats.hits} misses={stats.misses} "
                  f"stores={stats.stores}, volumes={run.output_values('volumes')}")

        print("\nwith the provenance-keyed result cache:")
        enact("cold run")
        enact("warm run")
        store = FileStore(cache_dir)
        print(f"  ({len(store)} cache entries persisted in "
              f"{cache_dir.name}/{store.path.name})")
        store.close()


if __name__ == "__main__":
    main()
