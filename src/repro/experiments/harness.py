"""The experiment harness: run configurations × sizes, collect rows.

One :func:`run_configuration` call is one cell of Table 1: a fresh
engine, a fresh calibrated grid, a fresh Bronze Standard application,
one enactment.  Isolating runs this way mirrors the paper's protocol
("we submitted each dataset ... with 6 different optimization
configurations in order to identify the specific gain provided by each
optimization") and keeps cells statistically independent.

:func:`run_sweep` produces the whole table plus the Table 2 regression
fits; the benchmarks and EXPERIMENTS.md are generated from its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core.config import OptimizationConfig
from repro.experiments.calibration import PAPER_SIZES, make_experiment_grid
from repro.grid.job import JobState
from repro.grid.middleware import Grid
from repro.model.metrics import ConfigurationFit, fit_configuration
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

__all__ = ["ExperimentRow", "SweepResult", "run_configuration", "run_sweep"]

GridFactory = Callable[[Engine, RandomStreams], Grid]


@dataclass(frozen=True)
class ExperimentRow:
    """One (configuration, size) measurement."""

    config_label: str
    n_pairs: int
    makespan: float
    jobs_submitted: int
    jobs_completed: int
    invocations: int
    mean_overhead: float
    accuracy_rotation: float
    accuracy_translation: float

    @property
    def hours(self) -> float:
        """Makespan in hours (the Figure 10 axis)."""
        return self.makespan / 3600.0


@dataclass
class SweepResult:
    """All rows of one sweep plus derived fits."""

    sizes: Tuple[int, ...]
    config_labels: Tuple[str, ...]
    rows: List[ExperimentRow] = field(default_factory=list)

    def cell(self, config_label: str, n_pairs: int) -> ExperimentRow:
        """Look one (configuration, size) cell up."""
        for row in self.rows:
            if row.config_label == config_label and row.n_pairs == n_pairs:
                return row
        raise KeyError(f"no row for ({config_label!r}, {n_pairs})")

    def times(self, config_label: str) -> List[float]:
        """Makespans of one configuration across the size sweep."""
        return [self.cell(config_label, size).makespan for size in self.sizes]

    def table1(self) -> Dict[str, Dict[int, float]]:
        """Same layout as the paper's Table 1."""
        return {
            label: {size: self.cell(label, size).makespan for size in self.sizes}
            for label in self.config_labels
        }

    def table2(self) -> Dict[str, ConfigurationFit]:
        """Linear fits per configuration (the paper's Table 2)."""
        return {
            label: fit_configuration(label, self.sizes, self.times(label))
            for label in self.config_labels
        }


def run_configuration(
    config: OptimizationConfig,
    n_pairs: int,
    seed: int = 42,
    grid_factory: Optional[GridFactory] = None,
    method_to_test: str = "crestMatch",
) -> ExperimentRow:
    """Run one Table 1 cell on a fresh engine and grid."""
    engine = Engine()
    streams = RandomStreams(seed=seed)
    if grid_factory is None:
        grid = make_experiment_grid(engine, streams)
    else:
        grid = grid_factory(engine, streams)
    app = BronzeStandardApplication(engine, grid, streams)
    result = app.enact(config, n_pairs=n_pairs, method_to_test=method_to_test)

    jobs = grid.records
    completed = jobs.rows(JobState.DONE)
    overheads = [value for value in jobs.overheads(completed) if value is not None]
    rotation = result.output_values("accuracy_rotation")
    translation = result.output_values("accuracy_translation")
    return ExperimentRow(
        config_label=config.label,
        n_pairs=n_pairs,
        makespan=result.makespan,
        jobs_submitted=len(jobs),
        jobs_completed=len(completed),
        invocations=result.invocation_count,
        mean_overhead=float(np.mean(overheads)) if overheads else 0.0,
        accuracy_rotation=float(rotation[0]) if rotation else float("nan"),
        accuracy_translation=float(translation[0]) if translation else float("nan"),
    )


def run_sweep(
    configs: Optional[Sequence[OptimizationConfig]] = None,
    sizes: Sequence[int] = PAPER_SIZES,
    seed: int = 42,
    grid_factory: Optional[GridFactory] = None,
) -> SweepResult:
    """Run the full Table 1 grid: every configuration at every size.

    Every cell uses the same master seed, so two configurations see
    identical overhead draws job-for-job — differences between rows are
    pure scheduling-policy effects, which is the cleanest version of
    the paper's controlled comparison.
    """
    if configs is None:
        configs = OptimizationConfig.paper_configurations()
    result = SweepResult(
        sizes=tuple(int(s) for s in sizes),
        config_labels=tuple(c.label for c in configs),
    )
    for config in configs:
        for size in result.sizes:
            result.rows.append(
                run_configuration(config, size, seed=seed, grid_factory=grid_factory)
            )
    return result
