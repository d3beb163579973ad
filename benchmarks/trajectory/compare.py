"""Compare two sets of trajectory runs: ``compare.py A.json B.json``.

A and B are ``run.py --out`` files (one JSON record per line; run the
benchmark several times with the same ``--out`` to build a set).  A is the
parent, B the change.  For every workload and every gated metric — the
``end_to_end`` list of ``BENCHMARK.json`` plus ``spec.LOCAL_GATES`` — one row
shows both medians and quartiles and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``REGRESSION``  it is worse by more than the bound
``unresolved``  within the bound, but a set's spread (quartile distance over
                median) exceeds the bound, so "unchanged" is not shown —
                unless every run of B reads better than every run of A
``CHANGED``     an exact metric (simulated time, failed share) differs

Exit status is 1 when any row is a REGRESSION or CHANGED, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import spec

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Samples:
    """(workload, metric) -> values, over the untraced full-size records."""
    samples: Samples = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] or record["smoke"]:
                continue
            for name, metric in record["metrics"].items():
                samples.setdefault((record["workload"], name), []).append(metric["value"])
    return samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: "float | None") -> str:
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    if bound is None:
        return "ok" if sorted(set(a)) == sorted(set(b)) else "CHANGED"
    worse_by = (median_b - median_a) / abs(median_a) if median_a else 0.0
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "REGRESSION"
    if max(spread(a), spread(b)) > bound:
        b_always_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        if not b_always_better:
            return "unresolved"
    return "ok"


def compare(path_a: str, path_b: str) -> int:
    benchmark = spec.load_benchmark()
    gates = spec.gates(benchmark)
    a, b = load(path_a), load(path_b)
    failed = False
    print(
        f"{'workload':<14}{'metric':<26}{'A q1':>12}{'A median':>12}{'A q3':>12}"
        f"{'B q1':>12}{'B median':>12}{'B q3':>12}  {'bound':<7}verdict"
    )
    for workload in spec.workload_names(benchmark):
        for name, (better, bound) in gates.items():
            key = (workload, name)
            if key not in a and key not in b:
                continue  # e.g. observed_overhead_ratio off observed_400
            if key not in a or key not in b:
                print(f"{workload:<14}{name:<26}  missing from {'A' if key not in a else 'B'}")
                failed = True
                continue
            row = verdict(a[key], b[key], better, bound)
            failed = failed or row in ("REGRESSION", "CHANGED")
            cells = "".join(f"{value:>12.6g}" for value in quartiles(a[key]) + quartiles(b[key]))
            shown = "exact" if bound is None else f"{bound:.0%}"
            print(f"{workload:<14}{name:<26}{cells}  {shown:<7}{row}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    sys.exit(compare(sys.argv[1], sys.argv[2]))
