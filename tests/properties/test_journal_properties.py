"""A journal cut anywhere in its last batch loads and resumes cleanly.

Group commit fsyncs once per ``GROUP_COMMIT_LINES`` lines, so an OS
crash can drop (or tear) at most the unsynced tail of a real run's
journal.  For a cut at any byte offset inside the last batch:

* ``load()`` returns exactly the invocation lines complete before the cut,
* resuming from the cut journal gives the uninterrupted run's outputs.
"""

import functools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.core.journal import GROUP_COMMIT_LINES, EnactmentJournal
from repro.grid.testbeds import cluster_testbed
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

SEED = 7
N_PAIRS = 12  # 74 lines: the last batch starts past the run marker


def enact(**kwargs):
    engine = Engine()
    streams = RandomStreams(seed=SEED)
    app = BronzeStandardApplication(engine, cluster_testbed(engine, streams), streams)
    return app.enact(OptimizationConfig.sp_dp(), n_pairs=N_PAIRS, **kwargs)


def outputs(result):
    return {
        sink: sorted(repr(v) for v in result.output_values(sink))
        for sink in ("assessment", "results")
    }


@functools.lru_cache(maxsize=None)
def uninterrupted():
    """(journal bytes, outputs) of one journaled, uninterrupted run."""
    with tempfile.TemporaryDirectory() as scratch:
        wal = Path(scratch) / "wal.jsonl"
        result = enact(journal=wal)
        return wal.read_bytes(), outputs(result)


def last_batch_start(raw: bytes) -> int:
    lines = raw.splitlines(keepends=True)
    assert len(lines) > GROUP_COMMIT_LINES
    return sum(len(line) for line in lines[: len(lines) - GROUP_COMMIT_LINES])


def complete_keys(raw: bytes, cut: int):
    """Keys of the invocation lines whose whole JSON text precedes *cut*."""
    keys, offset = [], 0
    for line in raw.splitlines(keepends=True):
        if offset + len(line.rstrip(b"\n")) <= cut:
            doc = json.loads(line)
            if doc["event"] == "invocation":
                keys.append(doc["key"])
        offset += len(line)
    return keys


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a_cut_in_the_last_batch_loads_the_complete_lines_and_resumes(data):
    raw, reference = uninterrupted()
    cut = data.draw(st.integers(last_batch_start(raw), len(raw)), label="cut")
    with tempfile.TemporaryDirectory() as scratch:
        wal = Path(scratch) / "wal.jsonl"
        wal.write_bytes(raw[:cut])
        loaded = EnactmentJournal(wal).load()
        assert list(loaded) == complete_keys(raw, cut)

        resumed = enact(journal=wal, resume=True)
        assert outputs(resumed) == reference
        assert resumed.replayed_count == len(loaded)
