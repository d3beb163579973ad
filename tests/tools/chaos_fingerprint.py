"""Fingerprint chaotic runs, to show a grid change leaves them byte-identical.

Runs best-effort SP+DP Bronze on ``chaotic_testbed`` at its defaults
(outages, lossy links, replica loss 0.02, corruption 0.015, repair on)
for seeds 0-9 x {20, 60} pairs and writes one JSON line per run: the
makespan, the engine's events, every job record, every repair transfer
as (time, gfn, src site, dst site, bytes, seconds) and the final
replica map with each replica's health.  Run it from two checkouts and
compare the files::

    PYTHONPATH=src python tests/tools/chaos_fingerprint.py /tmp/change.jsonl
    (cd ../parent && PYTHONPATH=src python tests/tools/chaos_fingerprint.py /tmp/parent.jsonl)
    cmp /tmp/parent.jsonl /tmp/change.jsonl
"""

import itertools
import json
import sys

import repro.grid.job
import repro.grid.storage
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.grid.testbeds import chaotic_testbed
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

SEEDS = range(10)
PAIRS = (20, 60)


def fingerprint(seed, pairs):
    # process-global id counters: reset so every run numbers from 1
    repro.grid.job._job_ids = itertools.count(1)
    repro.grid.storage._file_counter = itertools.count(1)
    engine = Engine()
    streams = RandomStreams(seed=seed)
    grid = chaotic_testbed(engine, streams)
    repairs = []

    def observe(src, dst, size, seconds):
        context = grid.transfer_context
        if context is not None and context.purpose == "repair":
            repairs.append((engine.now, context.gfn, src, dst, size, seconds))

    grid.network.add_observer(observe)
    result = BronzeStandardApplication(engine, grid, streams).enact(
        OptimizationConfig.sp_dp().with_best_effort(), n_pairs=pairs
    )
    catalog = grid.catalog
    return {
        "seed": seed,
        "pairs": pairs,
        "makespan": result.makespan,
        "events": engine.events_processed,
        "jobs": [
            (
                r.job_id,
                r.name,
                r.state.value,
                r.computing_element,
                r.worker_node,
                r.attempts,
                r.failure_reason,
                r.stage_in_time,
                r.stage_out_time,
                r.execution_time,
                {state.value: list(times) for state, times in r.timestamps.items()},
            )
            for r in grid.records
        ],
        "repairs": repairs,
        "replicas": {
            gfn: [(se.name, se.healthy(gfn)) for se in catalog.replicas(gfn)]
            for gfn in catalog.gfns()
        },
    }


def main(path):
    with open(path, "w", encoding="utf-8") as out:
        for seed in SEEDS:
            for pairs in PAIRS:
                row = fingerprint(seed, pairs)
                out.write(json.dumps(row, sort_keys=True, default=str) + "\n")
                print(seed, pairs, row["makespan"], row["events"], len(row["repairs"]))


if __name__ == "__main__":
    main(sys.argv[1])
