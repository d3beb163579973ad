"""repro — reproduction of *Efficient services composition for
grid-enabled data-intensive applications* (Glatard, Montagnat, Pennec;
HPDC 2006).

The package rebuilds the paper's full stack:

* :mod:`repro.sim` — a deterministic discrete-event simulation kernel,
* :mod:`repro.grid` — an EGEE/LCG2-like production-grid simulator
  (broker, batch queues, storage, stochastic overheads, faults, load),
* :mod:`repro.services` — the service layer: executable descriptors
  (Figure 8), the generic code wrapper, grouped virtual services
  (Figure 7), intra-service batching,
* :mod:`repro.workflow` — the service-based workflow model: ports,
  links, iteration strategies, Scufl documents, input data sets,
* :mod:`repro.core` — **MOTEUR**, the optimized enactor combining
  workflow/data/service parallelism with job grouping, provenance
  history trees and execution diagrams,
* :mod:`repro.cache` — the provenance-keyed result cache that makes
  warm re-execution of a persisted workflow + data set (nearly) free,
* :mod:`repro.model` — the analytical makespan model (equations 1-4),
  asymptotic speed-ups, and the y-intercept/slope metrics,
* :mod:`repro.taskbased` — the DAGMan-style task-based baseline,
* :mod:`repro.apps` — the Bronze Standard medical-imaging application
  with real rigid-transform statistics,
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro.sim import Engine
    from repro.grid import egee_like_testbed
    from repro.apps import BronzeStandardApplication
    from repro.core import OptimizationConfig

    engine = Engine()
    grid = egee_like_testbed(engine)
    app = BronzeStandardApplication(engine, grid)
    result = app.enact(OptimizationConfig.sp_dp_jg(), n_pairs=12)
    print(result.makespan, result.output_values("accuracy_rotation"))
"""

from repro.cache import FileStore, InMemoryStore, ResultCache
from repro.core.config import OptimizationConfig
from repro.core.enactor import EnactmentResult, MoteurEnactor
from repro.sim.engine import Engine
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.datasets import InputDataSet

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "MoteurEnactor",
    "EnactmentResult",
    "OptimizationConfig",
    "WorkflowBuilder",
    "InputDataSet",
    "ResultCache",
    "InMemoryStore",
    "FileStore",
    "__version__",
]
