"""Result stores: keep-everything semantics, the FileStore log, torn and corrupt lines."""

import fcntl
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cache.store as store_module
from repro.cache import ResultCache
from repro.cache.store import (
    CacheEntry,
    CacheStoreError,
    FileStore,
    InMemoryStore,
    ResultStore,
    entry_from_document,
    entry_line,
    entry_to_document,
)
from repro.grid.storage import LogicalFile
from repro.services.base import GridData


def make_entry(key, value=1, service="S"):
    return CacheEntry(key=key, service=service, outputs={"out": GridData(value=value)})


@pytest.fixture
def open_store(cache_dir):
    """``open_store(directory=cache_dir)``: a FileStore closed at teardown."""
    stores = []

    def make(directory=cache_dir):
        stores.append(FileStore(directory))
        return stores[-1]

    yield make
    for store in stores:
        store.close()


class TestProtocol:
    def test_both_stores_satisfy_result_store(self, open_store):
        assert isinstance(InMemoryStore(), ResultStore)
        assert isinstance(open_store(), ResultStore)


class TestInMemoryStore:
    def test_roundtrip(self):
        store = InMemoryStore()
        store.put(make_entry("k"))
        entry = store.get("k")
        assert entry is not None
        assert entry.outputs["out"].value == 1
        assert store.get("absent") is None

    def test_overwrite_keeps_single_entry(self):
        store = InMemoryStore()
        store.put(make_entry("k", value=1))
        store.put(make_entry("k", value=2))
        assert len(store) == 1
        assert store.get("k").outputs["out"].value == 2

    def test_clear(self):
        store = InMemoryStore()
        store.put(make_entry("k"))
        store.clear()
        assert len(store) == 0
        assert "k" not in store


class TestDocumentCodec:
    def test_scalars_stay_json(self):
        entry = make_entry("k", value=3)
        doc = entry_to_document(entry)
        assert doc["outputs"]["out"]["value"] == 3
        assert entry_from_document(doc).outputs["out"].value == 3

    def test_numpy_roundtrips_bit_exact(self):
        array = np.array([1.5, 2.5, float(np.pi)])
        entry = CacheEntry(key="k", service="S", outputs={"o": GridData(value=array)})
        doc = json.loads(json.dumps(entry_to_document(entry)))  # through real JSON
        back = entry_from_document(doc).outputs["o"].value
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, array)

    def test_nonfinite_floats_round_trip(self):
        values = [float("inf"), float("-inf"), float("nan"), -0.0]
        entry = CacheEntry(key="k", service="S", outputs={"o": GridData(value=values)})
        line = entry_line(entry)
        json.loads(line, parse_constant=pytest.fail)  # strict JSON: no NaN/Infinity literals
        back = entry_from_document(json.loads(line)).outputs["o"].value
        assert [repr(v) for v in back] == ["inf", "-inf", "nan", "-0.0"]

    def test_grid_file_identity_survives(self):
        datum = GridData(value=None, file=LogicalFile("gfn://x/1", size=2048))
        entry = CacheEntry(key="k", service="S", outputs={"o": datum})
        back = entry_from_document(entry_to_document(entry)).outputs["o"]
        assert back.file == LogicalFile("gfn://x/1", size=2048)

    def test_bytes_stored_is_the_encoded_length(self):
        outputs = {"o": GridData(value=list(range(100))), "f": GridData(value=np.arange(3.0))}
        cache = ResultCache()
        cache.put("k", "S", outputs)
        stored = cache.snapshot().total.bytes_stored
        encoded = json.dumps(
            entry_to_document(CacheEntry("k", "S", outputs))["outputs"],
            sort_keys=True,
            separators=(",", ":"),
        )
        assert stored == len(encoded) > 0

    def test_the_line_is_canonical_json(self):
        outputs = {"z": GridData(value={"b": (1, 2.5), "a": {3}}), "a": GridData(value=None)}
        line = entry_line(CacheEntry("k", "S", outputs))
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    def test_a_decoded_datum_carries_its_line_text(self):
        outputs = {"o": GridData(value=[1.5, (2, "x")])}
        doc = entry_to_document(CacheEntry("k", "S", outputs))
        back = entry_from_document(doc).outputs["o"]
        assert vars(back)["value_text"] == outputs["o"].value_text


class TestFileStore:
    def test_roundtrip_across_instances(self, open_store):
        """The warm-re-execution property: a fresh process sees the entries."""
        open_store().put(make_entry("k", value=42))
        entry = open_store().get("k")
        assert entry is not None
        assert entry.outputs["out"].value == 42

    def test_no_tmp_droppings_after_put(self, open_store, cache_dir):
        store = open_store()
        for i in range(5):
            store.put(make_entry(f"k{i}"))
        assert [path.name for path in cache_dir.iterdir()] == ["entries.jsonl"]
        assert len(store) == 5
        assert sorted(store.keys()) == [f"k{i}" for i in range(5)]

    def test_corrupt_line_is_a_miss_until_put_again(self, open_store, cache_dir):
        with open(cache_dir / "entries.jsonl", "w", encoding="utf-8") as log:
            log.write('{"key": "k", "service": "S", "outputs": {"out": oops}\n')
            log.write('{"key": "t", "service": "S", "outp')  # torn by a crash
        store = open_store()
        assert store.get("k") is None
        assert store.get("t") is None
        store.put(make_entry("k", value=5))
        store.put(make_entry("t", value=6))
        assert store.get("k").outputs["out"].value == 5
        assert open_store().get("t").outputs["out"].value == 6

    def test_overwrite_keeps_single_entry(self, open_store):
        store = open_store()
        store.put(make_entry("k", value=1))
        store.put(make_entry("k", value=2))
        assert store.get("k").outputs["out"].value == 2
        assert len(store) == 1

    def test_clear(self, open_store):
        store = open_store()
        store.put(make_entry("a"))
        store.put(make_entry("b"))
        store.clear()
        assert len(store) == 0

    def test_same_result_is_the_same_bytes(self, open_store, cache_dir):
        """A document holds nothing that depends on when it was written."""
        outputs = {"out": GridData(value=[1.5, 2.5]), "n": GridData(value=3)}
        ResultCache(store=open_store(cache_dir / "a")).put("k", "S", outputs)
        time.sleep(0.01)
        ResultCache(store=open_store(cache_dir / "b")).put("k", "S", outputs)
        first = (cache_dir / "a" / "entries.jsonl").read_bytes()
        assert first == (cache_dir / "b" / "entries.jsonl").read_bytes()
        document = entry_line(CacheEntry("k", "S", outputs))
        assert first == document.encode("utf-8") + b"\n"

    def test_documents_with_timestamp_and_size_still_hit(self, open_store, cache_dir):
        """Entries carrying the older created_at/size_bytes fields stay warm."""
        document = {
            "key": "k",
            "service": "S",
            "created_at": 1760000000.5,
            "size_bytes": 64,
            "outputs": {"out": {"value": 7}},
        }
        (cache_dir / "entries.jsonl").write_text(json.dumps(document) + "\n", encoding="utf-8")
        cache = ResultCache(store=open_store())
        assert cache.lookup("k", "S")["out"].value == 7
        assert cache.snapshot().total.hits == 1

    def test_open_instance_sees_later_puts_of_another(self, open_store):
        reader, writer = open_store(), open_store()
        assert reader.get("k") is None  # the reader's handle exists first
        writer.put(make_entry("k", value=9))
        assert reader.get("k").outputs["out"].value == 9
        assert "k" in reader and len(reader) == 1
        writer.put(make_entry("k", value=10))
        assert open_store().get("k").outputs["out"].value == 10  # later line wins

    def test_torn_tail_keeps_earlier_entries_and_next_put_starts_a_line(self, open_store, cache_dir):
        store = open_store()
        for i in range(3):
            store.put(make_entry(f"k{i}", value=i))
        log = cache_dir / "entries.jsonl"
        raw = log.read_bytes()
        log.write_bytes(raw[: len(raw) - 10])  # a crash cut the last line
        reopened = open_store()
        assert [reopened.get(f"k{i}") is not None for i in range(3)] == [True, True, False]
        reopened.put(make_entry("new", value=7))
        lines = log.read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert json.loads(lines[-2])["key"] == "new"
        fresh = open_store()
        assert fresh.get("new").outputs["out"].value == 7
        assert sorted(fresh.keys()) == ["k0", "k1", "new"]

    def test_a_line_another_writer_is_still_writing_is_not_a_torn_tail(self, open_store, cache_dir):
        log = cache_dir / "entries.jsonl"
        line = json.dumps(entry_to_document(make_entry("k", value=1))).encode("utf-8")
        with open(log, "ab", buffering=0) as writer:
            fcntl.flock(writer, fcntl.LOCK_EX)
            writer.write(line[:10])  # the other writer's line, half copied in
            store = open_store()
            opener = threading.Thread(target=store.put, args=(make_entry("j", value=2),))
            opener.start()
            opener.join(timeout=0.2)
            assert opener.is_alive()  # the torn-tail check waits for the writer
            writer.write(line[10:] + b"\n")
            fcntl.flock(writer, fcntl.LOCK_UN)
        opener.join(timeout=60)
        assert not opener.is_alive()
        assert [json.loads(line)["key"] for line in log.read_bytes().splitlines()] == ["k", "j"]

    def test_clear_by_another_instance_turns_stale_offsets_into_misses(self, open_store):
        store, other = open_store(), open_store()
        store.put(make_entry("a", value="x" * 50))
        store.put(make_entry("b", value=2))
        other.clear()
        other.put(make_entry("c", value="y" * 50))  # a's old offset and length
        assert store.get("a") is None  # the line there parses, but is c's
        assert store.get("b") is None  # past the end of the new log
        assert store.get("c").outputs["out"].value == "y" * 50
        assert sorted(store.keys()) == ["c"]

    def test_reads_of_a_missing_log_create_nothing(self, open_store, tmp_path):
        store = open_store(tmp_path / "nowhere")
        assert store.get("k") is None and len(store) == 0 and "k" not in store
        assert store.keys() == [] and store.documents() == []
        assert not (tmp_path / "nowhere").exists()
        store.put(make_entry("k", value=4))  # a put creates the log
        assert store.get("k").outputs["out"].value == 4

    def test_reads_write_nothing(self, open_store, cache_dir):
        open_store().put(make_entry("k", value=1))
        log = cache_dir / "entries.jsonl"
        torn = log.read_bytes() + b'{"key": "t", "serv'
        log.write_bytes(torn)
        store = open_store()
        assert store.get("t") is None and store.get("k") is not None and len(store) == 1
        assert log.read_bytes() == torn

    def test_a_log_that_cannot_be_opened_for_append_still_serves_reads(
        self, open_store, monkeypatch
    ):
        open_store().put(make_entry("k", value=1))
        store = open_store()
        assert store.get("k") is not None  # indexed through a read-only handle

        def refuse(path):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr(store_module, "_open_log", refuse)
        with pytest.raises(CacheStoreError):
            store.put(make_entry("j", value=2))
        assert store.get("k").outputs["out"].value == 1

    def test_close_releases_the_handle_and_the_next_call_reopens(self, open_store):
        store = open_store()
        store.put(make_entry("k", value=3))
        store.close()
        assert store._handle is None
        assert store.get("k").outputs["out"].value == 3
        store.close()

    def test_threads_sharing_one_store_lose_no_put(self, open_store):
        store = open_store()
        readers = open_store()

        def work(name):
            for i in range(100):
                store.put(make_entry(f"{name}{i}", value=[name, i]))
                assert store.get(f"{name}{i}").outputs["out"].value == [name, i]
                readers.get(f"{name}{i // 2}")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in "abcdef"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for reader in (store, readers, open_store()):
            assert len(reader) == 600
            assert all(
                reader.get(f"{name}{i}").outputs["out"].value == [name, i]
                for name in "abcdef" for i in range(100)
            )

    def test_concurrent_puts_from_two_processes_all_land(self, open_store, cache_dir, tmp_path):
        go = tmp_path / "go"
        env = subprocess_env()
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", CONCURRENT_PUTS, str(cache_dir), str(go), name],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for name in ("p", "q")
        ]
        try:
            for writer in writers:
                assert writer.stdout.readline().strip() == "ready"
            go.touch()
            for writer in writers:
                assert writer.wait(timeout=120) == 0
        finally:
            for writer in writers:
                if writer.poll() is None:
                    writer.kill()
                writer.stdout.close()
        lines = (cache_dir / "entries.jsonl").read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == 400
        assert all(isinstance(json.loads(line), dict) for line in lines)
        store = open_store()
        for name in ("p", "q"):
            for i in range(200):
                assert store.get(f"{name}{i}").outputs["out"].value == [name, i] * 20

    def test_warm_run_in_a_second_process_submits_nothing(self, cache_dir):
        env = subprocess_env()

        def enact():
            done = subprocess.run(
                [sys.executable, "-c", BRONZE_RUN, str(cache_dir)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        cold, warm = enact(), enact()
        assert cold["jobs"] > 0 and cold["stores"] > 0 and cold["hits"] == 0
        assert warm["jobs"] == 0
        assert warm["hits"] == cold["stores"]
        assert warm["stores"] == 0
        assert warm["outputs"] == cold["outputs"]


def subprocess_env():
    """The environment a child Python needs to import this checkout's ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


#: argv: cache directory, start-flag path, key prefix; 200 puts once the flag exists
CONCURRENT_PUTS = """
import os, sys, time
from repro.cache.store import CacheEntry, FileStore
from repro.services.base import GridData

directory, go, name = sys.argv[1:]
store = FileStore(directory)
print("ready", flush=True)
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(200):
    store.put(CacheEntry(f"{name}{i}", "S", {"out": GridData(value=[name, i] * 20)}))
"""

#: argv: cache directory; one SP+DP Bronze enactment, its counts as JSON
BRONZE_RUN = """
import json, sys
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.cache import FileStore, ResultCache
from repro.core import OptimizationConfig
from repro.grid.testbeds import cluster_testbed
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

engine = Engine()
streams = RandomStreams(seed=7)
app = BronzeStandardApplication(engine, cluster_testbed(engine, streams), streams)
cache = ResultCache(store=FileStore(sys.argv[1]))
result = app.enact(OptimizationConfig.sp_dp(), n_pairs=3, cache=cache)
total = cache.snapshot().total
print(json.dumps({
    "jobs": len(app.grid.records),
    "hits": total.hits,
    "stores": total.stores,
    "outputs": sorted(repr(v) for v in result.output_values("results")),
}))
"""


def cache_calls(operation, times):
    """Calls and ``open`` calls inside ``repro.cache`` per ``operation(i)``, i < *times*.

    A call counts when a ``repro.cache`` frame is on the stack or is the
    callee (Python and C calls alike), so store work a put delegates is
    charged to it; an open is such a C call named ``open``.
    """
    counts = {"calls": 0, "opens": 0}
    inside = 0

    def count(frame, event, arg):
        nonlocal inside
        in_cache = frame.f_globals.get("__name__", "").startswith("repro.cache")
        if event == "call":
            if inside or in_cache:
                counts["calls"] += 1
            inside += in_cache
        elif event == "return":
            inside -= in_cache
        elif event == "c_call" and inside:
            counts["calls"] += 1
            counts["opens"] += getattr(arg, "__name__", "") == "open"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for i in range(times):
            operation(i)
    finally:
        sys.setprofile(previous)
    return counts["calls"] / times, counts["opens"]


def put_calls(resident, puts=20):
    """Calls made inside ``repro.cache`` per put into a cache of *resident* entries."""
    cache = ResultCache()
    for i in range(resident):
        cache.put(f"old{i}", "S", {"out": GridData(value=i)})
    calls, _ = cache_calls(lambda i: cache.put(f"new{i}", "S", {"out": GridData(value=i)}), puts)
    assert len(cache) == resident + puts
    return calls


class TestPutCost:
    def test_put_calls_do_not_grow_with_store_size(self):
        # Deterministic complexity guard: counts calls, never reads a clock.
        # Rebuilding a recency list and summing entry sizes on every put
        # cost ~1 call per resident entry; a store that keeps what it is
        # given does the same work at any size.
        small, large = put_calls(100), put_calls(5000)
        assert large < 1.5 * small, (small, large)


def file_store_work(directory, resident, ops=20):
    """:func:`cache_calls` per put and per hit on a FileStore of *resident* entries."""
    cache = ResultCache(store=FileStore(directory))
    for i in range(resident):
        cache.put(f"old{i}", "S", {"out": GridData(value=i)})
    stride = resident // ops

    def hit(i):
        assert cache.lookup(f"old{i * stride}", "S")["out"].value == i * stride

    try:
        return {
            "put": cache_calls(lambda i: cache.put(f"new{i}", "S", {"out": GridData(value=i)}), ops),
            "hit": cache_calls(hit, ops),
        }
    finally:
        cache.store.close()


class TestFileStoreCost:
    def test_puts_and_hits_open_nothing_and_stay_flat(self, cache_dir):
        # Deterministic guard: counts calls, never reads a clock.  A file
        # per entry costs an open (plus a rename or a read) per put and per
        # hit; one kept log handle costs one write or one positional read.
        small = file_store_work(cache_dir / "small", 100)
        large = file_store_work(cache_dir / "large", 2000)
        for operation in ("put", "hit"):
            (small_calls, small_opens), (large_calls, large_opens) = (
                small[operation], large[operation]
            )
            assert small_opens == large_opens == 0, (operation, small_opens, large_opens)
            assert large_calls < 1.5 * small_calls, (operation, small_calls, large_calls)
