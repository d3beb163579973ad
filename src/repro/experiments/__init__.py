"""Experiment drivers shared by the benchmark suite and EXPERIMENTS.md.

* :mod:`~repro.experiments.calibration` — the EGEE-like calibration
  constants and the paper's published numbers (Tables 1 and 2),
* :mod:`~repro.experiments.harness` — run configurations × data-set
  sizes on fresh engines and collect rows,
* :mod:`~repro.experiments.reporting` — text tables, paper-vs-measured
  comparisons, and shape checks,
* :mod:`~repro.experiments.analysis` — post-hoc job-record statistics
  (overhead breakdowns, per-service totals),
* ``python -m repro.experiments`` — the command-line entry point
  (``table1``, ``diagrams``, ``bronze``).
"""

from repro.experiments.analysis import (
    job_statistics,
    overhead_breakdown,
)
from repro.experiments.calibration import (
    PAPER_SIZES,
    PAPER_TABLE1,
    PAPER_TABLE2,
    make_experiment_grid,
)
from repro.experiments.harness import ExperimentRow, SweepResult, run_configuration, run_sweep
from repro.experiments.reporting import (
    format_table1,
    format_table2,
    format_ratios,
    paper_comparison,
)

__all__ = [
    "PAPER_SIZES",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "make_experiment_grid",
    "ExperimentRow",
    "SweepResult",
    "run_configuration",
    "run_sweep",
    "format_table1",
    "format_table2",
    "format_ratios",
    "paper_comparison",
    "job_statistics",
    "overhead_breakdown",
]
