"""The reachability recorder types a receiver only where the code says which
class it is: an annotated parameter, a local bound only by ``C(...)``, or a
``self`` attribute every binding of which in the class hierarchy is typed."""

import ast

from tests.tools.reachability import receiver_classes, references

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



ATTRIBUTES = """
class Grid: pass

class Span: pass

class Config:
    cache = {}

    def __init__(self, grid: Grid, name):
        self.index = {}
        self.grid = grid
        self.span = None
        self.other = name
        self.bag: Dict[str, int] = make()
        self.moved = grid

    def attach(self):
        self.span = Span()

    def use(self):
        self.index.a()
        self.cache.b()
        self.bag.c()
        self.grid.d()
        self.span.e()
        self.other.f()
        self.moved.g()
        self.shared.h()

class Child(Config):
    def rebind(self, anything):
        self.shared = Grid()
        anything.moved = None
"""


def test_self_attribute_receivers():
    """``self.a.m`` resolves through every binding of ``a`` in the class
    hierarchy: builtin values reach no src/ def, typed ones their classes;
    one untyped binding, or a store of ``a`` on another receiver, leaves it
    to name matching."""
    keys = {name: ("m", (name,)) for name in ("Grid", "Span", "Config", "Child")}
    up = {key: set() for key in keys.values()}
    down = {key: set() for key in keys.values()}
    up[keys["Child"]] = {keys["Config"]}
    down[keys["Config"]] = {keys["Child"]}
    sites = references(up, down, [("m", ast.parse(ATTRIBUTES))])
    typed = {
        method: sorted(types)
        for method in "abcdefgh"
        for _site, types in sites.get(("typed", method), ())
    }
    assert typed == {"a": [], "b": [], "c": [], "d": ["Grid"], "e": ["Span"], "h": ["Grid"]}
    assert sites[("attr", "f")] == sites[("attr", "g")] == {"m:Config.use"}
    assert ("attr", "a") not in sites
