"""A log or journal is data, never code: reading one executes nothing.

Lines written before the canonical codec held most values as base64
pickles.  Such a line must read as a miss, never be unpickled, and no
module under ``src/`` may import a deserializer that runs code.
"""

import ast
import base64
import json
import pickle

import pytest

from repro.cache.store import FileStore
from repro.core.journal import EnactmentJournal
from repro.util.codec import CodecError
from tests.test_no_roadmap_items import ROOT, checked_files

#: set by Trap.__reduce__ if anything ever unpickles the payload below
TRIPPED = []


class Trap:
    def __reduce__(self):
        return (TRIPPED.append, ("unpickled",))


def legacy_line(key):
    """A line in the layout older versions wrote: the value pickled, base64'd."""
    blob = base64.b64encode(pickle.dumps(Trap(), protocol=4)).decode("ascii")
    document = {
        "event": "invocation",
        "key": key,
        "service": "S",
        "outputs": {"out": {"value": {"kind": "pickle", "data": blob}}},
    }
    return json.dumps(document) + "\n"


def test_a_pickled_line_is_a_miss_and_is_never_unpickled(tmp_path):
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "entries.jsonl").write_text(legacy_line("k"), encoding="utf-8")
    (tmp_path / "wal.jsonl").write_text(legacy_line("k"), encoding="utf-8")
    with FileStore(tmp_path / "cache") as store:
        assert store.get("k") is None
    assert EnactmentJournal(tmp_path / "wal.jsonl").load() == {}
    assert TRIPPED == []


def test_a_tag_no_class_registered_is_an_error_not_a_miss(tmp_path):
    document = {"event": "invocation", "key": "k", "service": "S",
                "outputs": {"out": {"value": {"Unheard": {"x": 1}}}}}
    (tmp_path / "cache").mkdir()
    for path in (tmp_path / "cache" / "entries.jsonl", tmp_path / "wal.jsonl"):
        path.write_text(json.dumps(document) + "\n", encoding="utf-8")
    with FileStore(tmp_path / "cache") as store, pytest.raises(CodecError, match="Unheard"):
        store.get("k")
    with pytest.raises(CodecError, match="Unheard"):
        EnactmentJournal(tmp_path / "wal.jsonl").load()


def test_no_module_under_src_imports_a_code_running_deserializer():
    banned = {"pickle", "_pickle", "marshal", "shelve"}
    found = []
    for path in checked_files(trees=("src",), docs=()):
        if path.suffix != ".py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in banned
            ]
    assert found == []
