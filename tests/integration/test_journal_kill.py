"""A real SIGKILL mid-run loses nothing the run had published.

The other crash tests raise :class:`~repro.core.journal.SimulatedCrash`,
which unwinds through ``finally`` blocks and closes files normally, so a
journal that buffered its lines in user space would pass them.  Here the
enacting process kills itself with ``SIGKILL`` right after its 10th
invocation line was appended: no Python cleanup runs, and only what the
journal had already handed to the OS survives.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.core.journal import EnactmentJournal
from repro.grid.testbeds import cluster_testbed
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

SEED = 7
N_PAIRS = 4
KILL_AFTER = 10

KILLED_RUN = f"""
import os, signal, sys
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.core.journal import EnactmentJournal
from repro.grid.testbeds import cluster_testbed
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

append = EnactmentJournal.append_invocation
appended = 0

def append_then_die(self, entry):
    global appended
    append(self, entry)
    appended += 1
    if appended == {KILL_AFTER}:
        os.kill(os.getpid(), signal.SIGKILL)

EnactmentJournal.append_invocation = append_then_die
engine = Engine()
streams = RandomStreams(seed={SEED})
app = BronzeStandardApplication(engine, cluster_testbed(engine, streams), streams)
app.enact(OptimizationConfig.sp_dp(), n_pairs={N_PAIRS}, journal=sys.argv[1])
sys.exit(3)  # unreachable: the kill comes first
"""


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


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkilled_run_keeps_its_lines_and_resumes_identically(tmp_path):
    wal = tmp_path / "wal.jsonl"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    killed = subprocess.run(
        [sys.executable, "-c", KILLED_RUN, str(wal)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr

    journaled = EnactmentJournal(wal).load()
    assert len(journaled) >= KILL_AFTER

    reference = enact()
    resumed = enact(journal=wal, resume=True)
    assert outputs(resumed) == outputs(reference)
    assert resumed.replayed_count == len(journaled)
    assert resumed.invocation_count == reference.invocation_count
