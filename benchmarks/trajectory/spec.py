"""What the benchmark declares: ``BENCHMARK.json`` plus the local gates.

``BENCHMARK.json`` at the repository root is the only list of workload and
metric names, units, directions and bounds; ``run.py``, ``compare.py`` and
the tests read it from here.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(HERE, "expected.json")

#: the seed whose simulated statistics ``expected.json`` pins
GOLDEN_SEED = 42

#: End-to-end metrics the driver's schema cannot carry, so they are declared
#: under ``per_layer`` there and gated here by ``compare.py``: an exact one
#: (a bound must be a share of at most 0.25), one that exists on a single
#: workload (the schema wants every end-to-end metric on every workload),
#: and one that is 0 on a healthy run (the schema forbids zeros).
#: name -> (better, bound); bound None means "must be identical".
LOCAL_GATES: Dict[str, Tuple[str, "float | None"]] = {
    "sim_makespan_s": ("lower", None),
    "observed_overhead_ratio": ("lower", 0.10),
    "failed_share": ("lower", None),
}


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(benchmark: dict) -> List[str]:
    return [workload["name"] for workload in benchmark["workloads"]]


def units(benchmark: dict) -> Dict[str, str]:
    """Metric name -> unit, over both metric lists."""
    return {
        metric["name"]: metric["unit"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }


def gates(benchmark: dict) -> Dict[str, Tuple[str, "float | None"]]:
    """Every gated metric: name -> (better, bound or None for exact)."""
    table = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in benchmark["end_to_end"]
    }
    table.update(LOCAL_GATES)
    return table
