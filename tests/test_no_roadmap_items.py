"""Code and docs say what the code does, not which roadmap entry asked for it.

Roadmap entries are renumbered and pruned, so a citation of one goes
stale; the sentence around it has to carry the reason on its own.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: built from parts so this file does not match itself
CITATION = re.compile(r"\s+".join(("ROADMAP", "item")))
DOCS = ("README.md", "DESIGN.md", "REACHABILITY.md")


def checked_files():
    for tree in ("src", "tests"):
        yield from sorted(
            path for path in (ROOT / tree).rglob("*")
            if path.is_file() and "__pycache__" not in path.parts
        )
    yield from (ROOT / doc for doc in DOCS)


def test_no_roadmap_item_citations():
    cited = []
    for path in checked_files():
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in CITATION.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            cited.append(f"{path.relative_to(ROOT)}:{line}")
    assert cited == []
