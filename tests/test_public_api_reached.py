"""A public-API pin never keeps code alive on its own.

``tests/test_public_api.py`` pins names the README promises.  The
reachability ledger (``REACHABILITY.md``, written by
``tests/tools/reachability.py``) must show each pinned function reached
or wired, and each pinned class with at least one def that is.  A name
only the pin uses is dead code: delete it, or give it a root.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from tests.tools.reachability import collect_defs

ROOT = Path(__file__).resolve().parents[1]


def pinned_names():
    """(module, name) for every name tests/test_public_api.py imports from
    ``repro`` or lists in its export table."""
    tree = ast.parse((ROOT / "tests" / "test_public_api.py").read_text())
    pins = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro":
            pins.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Constant)
            and isinstance(node.elts[1], ast.List)
        ):
            module = node.elts[0].value
            pins.update((module, name.value) for name in node.elts[1].elts)
    return sorted(pins)


def unreached_defs(text):
    """module -> qualnames the ledger lists as unreached (any verdict)."""
    section = text.split("## Unreached defs by verdict", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        match = re.match(r"- `([\w.]+)` · [^:]+: (.*)$", line)
        if match:
            names = re.findall(r"`([^`]+)`", match.group(2))
            listed.setdefault(match.group(1), set()).update(
                name.split(" ← ")[0] for name in names
            )
    return listed


PINS = pinned_names()
LEDGER = (ROOT / "REACHABILITY.md").read_text()
UNREACHED = unreached_defs(LEDGER)
DEFS = [d for d in collect_defs().values() if d.parent is None]


def test_the_pins_are_found():
    assert len(PINS) >= 40
    assert ("repro.sim", "Engine") in PINS and ("repro", "WorkflowBuilder") in PINS


def test_no_verdict_rests_on_a_pin():
    assert "public API" not in LEDGER


@pytest.mark.parametrize("module,name", PINS, ids=lambda value: value)
def test_pinned_name_is_reached(module, name):
    obj = inspect.unwrap(getattr(importlib.import_module(module), name))
    if not (inspect.isclass(obj) or inspect.isfunction(obj)):
        return  # a constant: nothing for the tracer to reach
    home, qualname = obj.__module__, obj.__qualname__
    listed = UNREACHED.get(home, set())
    if inspect.isfunction(obj):
        assert qualname not in listed, f"{module}.{name} is unreached"
        return
    own = [d.qualname for d in DEFS if d.module == home and d.qualname.startswith(qualname + ".")]
    assert not own or not set(own) <= listed, f"no def of {module}.{name} is reached"
