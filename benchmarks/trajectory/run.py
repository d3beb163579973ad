"""The trajectory benchmark: one command, six workloads, every metric by name.

    python benchmarks/trajectory/run.py --workload <name|all> --seed <int>
        [--seconds S] [--trace [0|1]] [--out PATH] [--smoke] [--update-golden]

Each workload runs in a fresh subprocess (``worker.py``).  Without
``--trace`` the worker times as many untraced passes as fit in ``--seconds``
and this script prints the end-to-end metrics; with ``--trace`` it runs one
untraced, one shim-traced and one Profiler pass and prints the per-layer
metrics.  The last line of standard output is the result the driver reads:
``{"correct", "attempted", "failed", "metrics"}`` with exactly the metrics
``BENCHMARK.json`` declares for that mode.  Exit status is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
#: set-up is sampled this many times per run (fresh processes); the median
#: is reported, so the one sample that compiles bytecode does not set it
SETUP_SAMPLES = 3
#: a worker that runs longer than this is killed and the run fails
WORKER_TIMEOUT_S = 600


def run_worker(arguments: List[str]) -> Optional[dict]:
    """Run one worker to completion; its JSON document, or None on failure."""
    try:
        done = subprocess.run(
            [sys.executable, WORKER, *arguments],
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker {arguments} exceeded {WORKER_TIMEOUT_S} s and was killed", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker {arguments} exited with status {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def golden_errors(document: dict, update: bool) -> List[str]:
    """Compare (or rewrite) the seed-42 simulated statistics of one workload."""
    expected = {}
    if os.path.exists(spec.EXPECTED_JSON):
        with open(spec.EXPECTED_JSON, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
    name, measured = document["workload"], document["golden"]
    if update:
        expected[name] = measured
        with open(spec.EXPECTED_JSON, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return []
    if name not in expected:
        return [f"expected.json has no entry for {name}; run with --update-golden"]
    return [
        f"golden {name}.{key}: expected {expected[name].get(key)!r}, measured {measured.get(key)!r}"
        for key in sorted(set(expected[name]) | set(measured))
        if expected[name].get(key) != measured.get(key)
    ]


def declaration_errors(metrics: Dict[str, float], benchmark: dict, trace: int) -> List[str]:
    """Emitted names must be the declared ones, no more and no fewer."""
    end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
    per_layer = {metric["name"] for metric in benchmark["per_layer"]}
    emitted = set(metrics)
    if trace:
        missing, undeclared = per_layer - emitted, emitted - per_layer
    else:
        # the untraced run also prints the locally gated end-to-end metrics
        missing = end_to_end - emitted
        undeclared = emitted - end_to_end - set(spec.LOCAL_GATES)
    errors = []
    if missing:
        errors.append(f"declared but not emitted: {sorted(missing)}")
    if undeclared:
        errors.append(f"emitted but not declared: {sorted(undeclared)}")
    return errors


def print_report(document: dict, metrics: Dict[str, dict], benchmark: dict) -> None:
    gates = spec.gates(benchmark)
    spans = document.get("spans", {})
    passes = "untraced + traced + Profiler pass" if spans else f"{len(document['walls'])} pass(es)"
    print(f"== {document['workload']}  seed {document['seed']}  {passes}  [{document['unit']}] ==")
    if spans:
        print(f"{'callable':<46}{'calls':>10}{'self_s':>12}{'us_per_call':>14}")
        for name, row in spans.items():
            per_call = 1e6 * row["self_s"] / row["calls"] if row["calls"] else 0.0
            print(f"{name:<46}{row['calls']:>10}{row['self_s']:>12.6f}{per_call:>14.3f}")
        ticks = spans["service.scheduler.tick"]["calls"]
        print(f"(service.scheduler.tick percentiles over {ticks} samples)")
    for name, metric in metrics.items():
        if spans and name.rsplit(".", 1)[0] in spans and name.endswith((".calls", ".self_s")):
            continue  # already in the callable table
        better, bound = gates.get(name, ("", ""))
        gate = "" if name not in gates else (
            f"{better} is better, bound {'exact' if bound is None else format(bound, '.0%')}"
        )
        print(f"{name:<46}{metric['value']:>16.6g} {metric['unit']:<8}{gate}")


def run_workload(name: str, args, benchmark: dict) -> bool:
    """Measure one workload, print it, append it to --out; True when correct."""
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    setups = []
    if not args.trace and not args.smoke:
        for _ in range(SETUP_SAMPLES - 1):
            sample = run_worker(common + ["--setup-only"])
            if sample is None:
                return False
            setups.append(sample["setup_s"])
    document = run_worker(common + ["--trace", str(args.trace)])
    if document is None:
        return False
    values = document["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [values["setup_s"]])

    errors = list(document["errors"])
    errors += declaration_errors(values, benchmark, args.trace)
    if args.seed == spec.GOLDEN_SEED and not args.smoke:
        errors += golden_errors(document, args.update_golden)
    correct = not errors

    units = spec.units(benchmark)
    metrics = {
        metric: {"value": value, "unit": units.get(metric, "")}
        for metric, value in values.items()
    }
    print_report(document, metrics, benchmark)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    if args.out:
        record = {
            "workload": name,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "correct": correct,
            "metrics": metrics,
            "walls": document["walls"],
            "spans": document.get("spans"),
            "host": {"python": platform.python_version(), "nproc": os.cpu_count()},
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in declared if m["name"] in metrics},
    }
    print(json.dumps(result), flush=True)
    return correct


def main() -> int:
    benchmark = spec.load_benchmark()
    names = spec.workload_names(benchmark)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=spec.GOLDEN_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"untraced measuring time per workload (default {benchmark['run_seconds']})",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer run: one untraced, one traced and one Profiler pass",
    )
    parser.add_argument("--out", help="append one JSON record per workload to this file")
    parser.add_argument("--smoke", action="store_true", help="every size / 10, one pass")
    parser.add_argument(
        "--update-golden", action="store_true",
        help=f"rewrite expected.json from this seed-{spec.GOLDEN_SEED} full-size run",
    )
    args = parser.parse_args()
    if args.update_golden and (args.seed != spec.GOLDEN_SEED or args.smoke):
        parser.error(f"--update-golden needs --seed {spec.GOLDEN_SEED} and no --smoke")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])

    selected = names if args.workload == "all" else [args.workload]
    results = [run_workload(name, args, benchmark) for name in selected]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
