"""The docs name only things that exist: every backticked ``repro.…`` dotted
name and every backticked ``*.py`` path in README.md, DESIGN.md and
EXPERIMENTS.md resolves (fenced code blocks are left out; their commands
are ``test_documented_commands``'s)."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def inline_spans():
    for doc in DOCS:
        text = re.sub(r"```.*?```", "", (ROOT / doc).read_text(), flags=re.S)
        yield from re.findall(r"`([^`]+)`", text)


SPANS = list(inline_spans())
NAMES = sorted({m.group(0) for span in SPANS for m in re.finditer(r"\brepro(?:\.\w+)+", span)})
PATHS = sorted({m.group(0) for span in SPANS for m in re.finditer(r"[\w./-]*\w\.py\b", span)})


def resolves(name):
    """Import the longest module prefix of *name*, then look the rest up on it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_docs_name_modules_and_files():
    assert len(NAMES) >= 20
    assert len(PATHS) >= 80


def test_every_dotted_name_resolves():
    assert [name for name in NAMES if not resolves(name)] == []


def test_every_py_path_names_a_file():
    # a path may be written from the repo root or from any directory below it
    files = {path.relative_to(ROOT).as_posix() for path in ROOT.rglob("*.py")}
    missing = [
        path for path in PATHS
        if path not in files and not any(f.endswith("/" + path) for f in files)
    ]
    assert missing == []
