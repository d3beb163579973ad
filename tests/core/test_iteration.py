"""Tests for dot/cross iteration strategies."""

import random
import sys

import pytest

from repro.core.iteration import IterationEngine, expected_bindings
from repro.core.provenance import HistoryTree
from repro.core.tokens import DataToken
from repro.services.base import GridData


def token(source, index):
    return DataToken(GridData(value=f"{source}{index}"), HistoryTree.leaf(source, index))


def derived(producer, *parents):
    return DataToken(
        GridData(value=producer), HistoryTree.derive(producer, tuple(p.history for p in parents))
    )


class TestSinglePort:
    def test_every_token_fires(self):
        eng = IterationEngine(("x",), "dot")
        for i in range(3):
            bindings = eng.offer("x", token("S", i))
            assert len(bindings) == 1
            assert bindings[0]["x"].value == f"S{i}"

    def test_cross_same_as_dot_for_single_port(self):
        eng = IterationEngine(("x",), "cross")
        assert len(eng.offer("x", token("S", 0))) == 1


class TestDotProduct:
    def test_in_order_pairing(self):
        eng = IterationEngine(("a", "b"), "dot")
        assert eng.offer("a", token("A", 0)) == []
        bindings = eng.offer("b", token("B", 0))
        assert len(bindings) == 1
        assert bindings[0]["a"].value == "A0"
        assert bindings[0]["b"].value == "B0"

    def test_min_cardinality(self):
        # paper: "producing min(n, m) results"
        eng = IterationEngine(("a", "b"), "dot")
        fired = 0
        for i in range(5):
            fired += len(eng.offer("a", token("A", i)))
        for j in range(3):
            fired += len(eng.offer("b", token("B", j)))
        assert fired == 3
        assert eng.buffered("a") == 2  # two unmatched leftovers

    def test_out_of_order_arrival_matched_by_provenance(self):
        # The Section 4.1 causality problem: items overtake each other
        # under DP+SP; provenance restores correct pairing.
        eng = IterationEngine(("left", "right"), "dot")
        s0, s1 = token("S", 0), token("S", 1)
        left1 = derived("P1", s1)   # item 1 finished P1 first
        left0 = derived("P1", s0)
        right0 = derived("P2", s0)  # item 0 finished P2 first
        right1 = derived("P2", s1)
        assert eng.offer("left", left1) == []
        assert eng.offer("left", left0) == []
        b0 = eng.offer("right", right0)
        assert len(b0) == 1 and b0[0]["left"] is left0  # not left1!
        b1 = eng.offer("right", right1)
        assert len(b1) == 1 and b1[0]["left"] is left1

    def test_independent_sources_pair_positionally(self):
        eng = IterationEngine(("a", "b"), "dot")
        eng.offer("a", token("A", 0))
        eng.offer("a", token("A", 1))
        b0 = eng.offer("b", token("B", 0))
        assert b0[0]["a"].value == "A0"  # arrival order

    def test_three_port_dot(self):
        eng = IterationEngine(("a", "b", "c"), "dot")
        eng.offer("a", token("S", 0))
        eng.offer("b", derived("P", token("S", 0)))
        bindings = eng.offer("c", derived("Q", token("S", 0)))
        assert len(bindings) == 1
        assert set(bindings[0]) == {"a", "b", "c"}

    def test_tokens_consumed_once(self):
        eng = IterationEngine(("a", "b"), "dot")
        eng.offer("a", token("S", 0))
        assert len(eng.offer("b", derived("P", token("S", 0)))) == 1
        # a second b-token for the same item finds no unconsumed partner
        assert eng.offer("b", derived("P", token("S", 0))) == []


class TestConsumeBySequence:
    """Dot buffers consume by arrival sequence, never by token equality."""

    def test_equal_valued_tokens_consumed_oldest_first(self):
        eng = IterationEngine(("a", "b"), "dot")
        first, second = token("S", 0), token("S", 0)
        assert first == second and first is not second
        eng.offer("a", first)
        eng.offer("a", second)
        assert eng.offer("b", derived("P", token("S", 0)))[0]["a"] is first
        assert eng.buffered("a") == 1
        assert eng.offer("b", derived("P", token("S", 0)))[0]["a"] is second
        assert eng.buffered("a") == 0

    def test_equal_valued_tokens_around_an_unrelated_one(self):
        eng = IterationEngine(("a", "b"), "dot")
        first, other, second = token("S", 0), token("S", 1), token("S", 0)
        for tok in (first, other, second):
            eng.offer("a", tok)
        assert eng.offer("b", derived("P", token("S", 1)))[0]["a"] is other
        assert eng.offer("b", derived("P", token("S", 0)))[0]["a"] is first
        assert eng.offer("b", derived("P", token("S", 0)))[0]["a"] is second
        assert eng.offer("b", derived("P", token("S", 0))) == []
        assert (eng.buffered("a"), eng.buffered("b")) == (0, 1)

    def test_positional_pairing_skips_consumed_tokens(self):
        # a0 is consumed by lineage; a b-token of unrelated ancestry must
        # then pair with the oldest *remaining* token, a1.
        eng = IterationEngine(("a", "b"), "dot")
        a0, a1 = token("S", 0), token("S", 1)
        eng.offer("a", a0)
        eng.offer("a", a1)
        assert eng.offer("b", derived("P", token("S", 0)))[0]["a"] is a0
        assert eng.offer("b", token("T", 0))[0]["a"] is a1


def _calls_per_offer(n: int) -> float:
    """Python-level function calls per offer: 3 ports x *n* shuffled lineages."""
    ports = ("a", "b", "c")
    arrivals = [(port, derived(port, token("S", i))) for port in ports for i in range(n)]
    random.Random(n).shuffle(arrivals)
    eng = IterationEngine(ports, "dot")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for port, tok in arrivals:
            eng.offer(port, tok)
    finally:
        sys.setprofile(previous)
    assert eng.fired == n
    return calls / len(arrivals)


class TestDotMatchingCost:
    def test_calls_per_offer_do_not_grow_with_buffer_size(self):
        # Deterministic complexity guard: counts calls, never reads a clock.
        # A scan that calls compatible() per buffered token grows ~10x here.
        small, large = _calls_per_offer(200), _calls_per_offer(2000)
        assert large < 1.5 * small, (small, large)


class TestCrossProduct:
    def test_full_cartesian(self):
        # paper: "producing m x n results"
        eng = IterationEngine(("a", "b"), "cross")
        fired = 0
        for i in range(3):
            fired += len(eng.offer("a", token("A", i)))
        for j in range(4):
            fired += len(eng.offer("b", token("B", j)))
        assert fired == 12

    def test_combinations_unique(self):
        eng = IterationEngine(("a", "b"), "cross")
        seen = set()
        for i in range(2):
            for binding in eng.offer("a", token("A", i)):
                seen.add((binding["a"].value, binding["b"].value))
        for j in range(2):
            for binding in eng.offer("b", token("B", j)):
                seen.add((binding["a"].value, binding["b"].value))
        assert seen == {("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1")}

    def test_interleaved_arrivals(self):
        eng = IterationEngine(("a", "b"), "cross")
        total = 0
        total += len(eng.offer("a", token("A", 0)))  # 0
        total += len(eng.offer("b", token("B", 0)))  # 1
        total += len(eng.offer("a", token("A", 1)))  # 1
        total += len(eng.offer("b", token("B", 1)))  # 2
        assert total == 4


class TestValidation:
    def test_unknown_port_rejected(self):
        eng = IterationEngine(("a",), "dot")
        with pytest.raises(KeyError):
            eng.offer("zzz", token("S", 0))

    @pytest.mark.parametrize("strategy", ["dot", "cross"])
    def test_unknown_port_in_bookkeeping(self, strategy):
        eng = IterationEngine(("a", "b"), strategy)
        eng.offer("a", token("S", 0))
        with pytest.raises(KeyError):
            eng.offer("zzz", token("S", 0))
        with pytest.raises(KeyError):
            eng.buffered("zzz")
        assert eng.buffered("a") == 1 and eng.buffered("b") == 0
        assert repr(eng) == f"<IterationEngine {strategy} ports={{'a': 1, 'b': 0}} fired=0>"

    @pytest.mark.parametrize("strategy", ["dot", "cross"])
    def test_duplicate_port_names_rejected(self, strategy):
        # Two ports sharing a name used to collapse into one buffer and
        # fire one-port bindings.
        with pytest.raises(ValueError, match="duplicate"):
            IterationEngine(("a", "a"), strategy)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            IterationEngine(("a",), "zip")

    def test_empty_ports_rejected(self):
        with pytest.raises(ValueError):
            IterationEngine((), "dot")


class TestExpectedBindings:
    def test_dot_is_min(self):
        assert expected_bindings("dot", {"a": 5, "b": 3}) == 3

    def test_cross_is_product(self):
        assert expected_bindings("cross", {"a": 5, "b": 3}) == 15

    def test_no_ports_fires_once(self):
        assert expected_bindings("dot", {}) == 1

    def test_zero_stream(self):
        assert expected_bindings("dot", {"a": 0, "b": 3}) == 0
        assert expected_bindings("cross", {"a": 0, "b": 3}) == 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            expected_bindings("zip", {"a": 1})
