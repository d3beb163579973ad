"""Result stores: keep-everything semantics, atomic persistence, corrupt entries."""

import json
import sys
import time

import numpy as np

from repro.cache import ResultCache
from repro.cache.store import (
    CacheEntry,
    FileStore,
    InMemoryStore,
    ResultStore,
    entry_from_document,
    entry_to_document,
    estimate_entry_bytes,
)
from repro.grid.storage import LogicalFile
from repro.services.base import GridData


def make_entry(key, value=1, service="S"):
    return CacheEntry(key=key, service=service, outputs={"out": GridData(value=value)})


class TestProtocol:
    def test_both_stores_satisfy_result_store(self, cache_dir):
        assert isinstance(InMemoryStore(), ResultStore)
        assert isinstance(FileStore(cache_dir), ResultStore)


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
        assert doc["outputs"]["out"]["value"]["kind"] == "json"
        assert entry_from_document(doc).outputs["out"].value == 3

    def test_numpy_roundtrips_bit_exact(self):
        array = np.array([1.5, 2.5, float(np.pi)])
        entry = CacheEntry(key="k", service="S", outputs={"o": GridData(value=array)})
        doc = json.loads(json.dumps(entry_to_document(entry)))  # through real JSON
        back = entry_from_document(doc).outputs["o"].value
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, array)

    def test_nonfinite_floats_take_pickle_path(self):
        entry = CacheEntry(
            key="k", service="S", outputs={"o": GridData(value=float("inf"))}
        )
        doc = json.loads(json.dumps(entry_to_document(entry)))
        assert doc["outputs"]["o"]["value"]["kind"] == "pickle"
        assert entry_from_document(doc).outputs["o"].value == float("inf")

    def test_grid_file_identity_survives(self):
        datum = GridData(value=None, file=LogicalFile("gfn://x/1", size=2048))
        entry = CacheEntry(key="k", service="S", outputs={"o": datum})
        back = entry_from_document(entry_to_document(entry)).outputs["o"]
        assert back.file == LogicalFile("gfn://x/1", size=2048)

    def test_estimate_is_positive(self):
        assert estimate_entry_bytes({"o": GridData(value=list(range(100)))}) > 0


class TestFileStore:
    def test_roundtrip_across_instances(self, cache_dir):
        """The warm-re-execution property: a fresh process sees the entries."""
        FileStore(cache_dir).put(make_entry("k", value=42))
        entry = FileStore(cache_dir).get("k")
        assert entry is not None
        assert entry.outputs["out"].value == 42

    def test_no_tmp_droppings_after_put(self, cache_dir):
        store = FileStore(cache_dir)
        for i in range(5):
            store.put(make_entry(f"k{i}"))
        assert list(cache_dir.glob("*.tmp")) == []
        assert len(store) == 5
        assert sorted(store.keys()) == [f"k{i}" for i in range(5)]

    def test_corrupt_entry_is_a_miss_and_gets_removed(self, cache_dir):
        store = FileStore(cache_dir)
        store.put(make_entry("k"))
        (cache_dir / "k.json").write_text("{ torn write", encoding="utf-8")
        assert store.get("k") is None
        assert not (cache_dir / "k.json").exists()

    def test_overwrite_keeps_single_entry(self, cache_dir):
        store = FileStore(cache_dir)
        store.put(make_entry("k", value=1))
        store.put(make_entry("k", value=2))
        assert store.get("k").outputs["out"].value == 2
        assert len(store) == 1

    def test_clear(self, cache_dir):
        store = FileStore(cache_dir)
        store.put(make_entry("a"))
        store.put(make_entry("b"))
        store.clear()
        assert len(store) == 0

    def test_same_result_is_the_same_bytes(self, cache_dir):
        """A document holds nothing that depends on when it was written."""
        outputs = {"out": GridData(value=[1.5, 2.5]), "n": GridData(value=3)}
        ResultCache(store=FileStore(cache_dir / "a")).put("k", "S", outputs)
        time.sleep(0.01)
        ResultCache(store=FileStore(cache_dir / "b")).put("k", "S", outputs)
        first = (cache_dir / "a" / "k.json").read_bytes()
        assert first == (cache_dir / "b" / "k.json").read_bytes()

    def test_documents_with_timestamp_and_size_still_hit(self, cache_dir):
        """Entries written with the older created_at/size_bytes fields stay warm."""
        document = {
            "key": "k",
            "service": "S",
            "created_at": 1760000000.5,
            "size_bytes": 64,
            "outputs": {"out": {"value": {"kind": "json", "data": 7}}},
        }
        (cache_dir / "k.json").write_text(json.dumps(document), encoding="utf-8")
        cache = ResultCache(store=FileStore(cache_dir))
        assert cache.lookup("k", "S")["out"].value == 7
        assert cache.snapshot().total.hits == 1


def put_calls(resident, puts=20):
    """Calls made inside ``repro.cache`` per put into a cache of *resident* entries.

    A call counts when a ``repro.cache`` frame is on the stack or is the
    callee (Python and C calls alike), so store work a put delegates is
    charged to it.
    """
    cache = ResultCache()
    for i in range(resident):
        cache.put(f"old{i}", "S", {"out": GridData(value=i)})
    inside = calls = 0

    def count(frame, event, arg):
        nonlocal inside, calls
        in_cache = frame.f_globals.get("__name__", "").startswith("repro.cache")
        if event == "call":
            if inside or in_cache:
                calls += 1
            inside += in_cache
        elif event == "return":
            inside -= in_cache
        elif event == "c_call" and inside:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for i in range(puts):
            cache.put(f"new{i}", "S", {"out": GridData(value=i)})
    finally:
        sys.setprofile(previous)
    assert len(cache) == resident + puts
    return calls / puts


class TestPutCost:
    def test_put_calls_do_not_grow_with_store_size(self):
        # Deterministic complexity guard: counts calls, never reads a clock.
        # Rebuilding a recency list and summing entry sizes on every put
        # cost ~1 call per resident entry; a store that keeps what it is
        # given does the same work at any size.
        small, large = put_calls(100), put_calls(5000)
        assert large < 1.5 * small, (small, large)
