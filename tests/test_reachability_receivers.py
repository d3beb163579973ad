"""The reachability recorder types a receiver only where the code says which
class it is: an annotated parameter, or a local bound only by ``C(...)``."""

import ast

from tests.tools.reachability import receiver_classes

CLASSES = {"Span", "Grid", "Config"}


def typed(source, inherited=None):
    func = ast.parse(source).body[0]
    return receiver_classes(func, inherited or {}, CLASSES)


def test_annotated_parameters():
    found = typed(
        "def f(a: Span, b: 'Grid | None', c: Optional[Config], d: list, e: List[Span], g): pass"
    )
    assert found == {"a": {"Span"}, "b": {"Grid"}, "c": {"Config"}}


def test_constructed_locals():
    found = typed(
        "def f():\n"
        "    span = Span()\n"
        "    grid = Grid()\n"
        "    grid = make_grid()\n"
        "    for config in configs: pass\n"
    )
    assert found == {"span": {"Span"}}


def test_any_other_binding_untypes_a_name():
    found = typed(
        "def f(span: Span, crash):\n"
        "    try: pass\n"
        "    except Exception as crash: pass\n"
        "    span = other\n"
    )
    assert found == {}


def test_nested_function_inherits_unless_it_rebinds():
    assert typed("def g(): pass", {"grid": {"Grid"}}) == {"grid": {"Grid"}}
    assert typed("def g(grid): pass", {"grid": {"Grid"}}) == {}
