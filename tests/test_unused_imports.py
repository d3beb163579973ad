"""No module under ``src/`` imports a name it never uses.

The CI lint job runs ruff's pyflakes rules, where this is F401; ruff is
not a test dependency, so this AST scan keeps the rule in tier-1 too.
``__init__`` modules are exempt (they import names to publish them), as
are imports on a ``# noqa`` line.  A name counts as used when it is read
anywhere in the module or appears inside a string constant — which
covers ``__all__`` entries and quoted annotations.
"""

import ast
import re

from tests.test_no_roadmap_items import ROOT, checked_files

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def unused_imports(source):
    """(line, name) for every import binding *source* never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(IDENTIFIER.findall(node.value))
    return sorted((line, name) for line, name in bound if name not in used)


def find_unused(files):
    found = []
    for path in files:
        if path.suffix != ".py" or path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line} {name}")
    return found


def test_scan_flags_what_pyflakes_flags():
    source = (
        "from typing import TYPE_CHECKING, List, Tuple\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "import sys as system\n"
        "__all__ = ['exported']\n"
        "from x import exported\n"
        "if TYPE_CHECKING:\n"
        "    from y import Quoted, Dropped\n"
        "def f(a: 'Quoted') -> List[int]:\n"
        "    return os.path.join(a)\n"
    )
    assert unused_imports(source) == [(1, "Tuple"), (4, "system"), (8, "Dropped")]


def test_no_unused_imports_in_src():
    assert find_unused(checked_files(trees=("src",), docs=())) == []
