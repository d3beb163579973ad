"""Key derivation: deterministic, content-addressed, lineage-aware."""

import math
import sys

import numpy as np

from repro.cache import ResultCache
from repro.cache.keys import (
    fingerprint_datum,
    fingerprint_value,
    history_fingerprint,
    invocation_key,
    service_fingerprint,
)
from repro.core import NO_DATA, MoteurEnactor, OptimizationConfig
from repro.core.provenance import HistoryTree
from repro.core.tokens import DataToken
from repro.grid.storage import LogicalFile
from repro.services.base import GridData, LocalService
from repro.sim.engine import Engine
from repro.workflow.patterns import figure2_workflow


class TestValueFingerprints:
    def test_scalars_are_distinguished_by_type(self):
        assert fingerprint_value(1) != fingerprint_value(True)
        assert fingerprint_value(1) != fingerprint_value(1.0)
        assert fingerprint_value(1) != fingerprint_value("1")

    def test_containers(self):
        assert fingerprint_value([1, 2]) == fingerprint_value([1, 2])
        assert fingerprint_value([1, 2]) != fingerprint_value((1, 2))
        assert fingerprint_value({"a": 1, "b": 2}) == fingerprint_value({"b": 2, "a": 1})
        assert fingerprint_value({1, 2, 3}) == fingerprint_value({3, 2, 1})

    def test_numpy_arrays_content_addressed(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 3.0])
        c = np.array([1.0, 2.0, 4.0])
        assert fingerprint_value(a) == fingerprint_value(b)
        assert fingerprint_value(a) != fingerprint_value(c)
        # dtype and shape are part of the identity
        assert fingerprint_value(a) != fingerprint_value(a.astype(np.float32))
        assert fingerprint_value(a) != fingerprint_value(a.reshape(3, 1))

    def test_dataclasses_recurse_into_fields(self):
        from repro.apps.transforms import RigidTransform

        t1 = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        t2 = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        t3 = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 7])
        assert fingerprint_value(t1) == fingerprint_value(t2)
        assert fingerprint_value(t1) != fingerprint_value(t3)

    def test_datum_includes_grid_identity(self):
        bare = GridData(value=1)
        filed = GridData(value=1, file=LogicalFile("gfn://x", size=10))
        assert fingerprint_datum(bare) != fingerprint_datum(filed)


class TestHistoryFingerprints:
    def test_leaf_and_derived_are_distinct(self):
        leaf = HistoryTree.leaf("src", 0)
        derived = HistoryTree.derive("src", (HistoryTree.leaf("a", 0),))
        assert history_fingerprint(leaf) != history_fingerprint(derived)

    def test_equal_trees_equal_fingerprints(self):
        t1 = HistoryTree.derive("P", (HistoryTree.leaf("s", 1), HistoryTree.leaf("t", 2)))
        t2 = HistoryTree.derive("P", (HistoryTree.leaf("s", 1), HistoryTree.leaf("t", 2)))
        assert history_fingerprint(t1) == history_fingerprint(t2)

    def test_index_and_iteration_matter(self):
        assert history_fingerprint(HistoryTree.leaf("s", 0)) != history_fingerprint(
            HistoryTree.leaf("s", 1)
        )
        base = (HistoryTree.leaf("s", 0),)
        assert history_fingerprint(
            HistoryTree.derive("P", base, iteration=0)
        ) != history_fingerprint(HistoryTree.derive("P", base, iteration=1))

    def test_parent_order_matters(self):
        a, b = HistoryTree.leaf("s", 0), HistoryTree.leaf("t", 1)
        assert history_fingerprint(HistoryTree.derive("P", (a, b))) != history_fingerprint(
            HistoryTree.derive("P", (b, a))
        )


class TestInvocationKeys:
    def _token(self, source, index, value):
        return (HistoryTree.leaf(source, index), GridData(value=value))

    def test_same_inputs_same_key(self, engine):
        svc = LocalService(engine, "S", ("x",), ("y",))
        k1 = invocation_key(svc, {"x": (self._token("src", 0, 5),)})
        k2 = invocation_key(svc, {"x": (self._token("src", 0, 5),)})
        assert k1 == k2
        assert len(k1) == 64  # sha256 hex

    def test_lineage_disambiguates_equal_values(self, engine):
        """Dot-product granularity: (D0, D0) vs (D0, D1) with equal payloads."""
        svc = LocalService(engine, "S", ("a", "b"), ("y",))
        k_d0 = invocation_key(
            svc, {"a": (self._token("s", 0, 9),), "b": (self._token("t", 0, 9),)}
        )
        k_d1 = invocation_key(
            svc, {"a": (self._token("s", 0, 9),), "b": (self._token("t", 1, 9),)}
        )
        assert k_d0 != k_d1

    def test_value_changes_key(self, engine):
        svc = LocalService(engine, "S", ("x",), ("y",))
        k1 = invocation_key(svc, {"x": (self._token("src", 0, 5),)})
        k2 = invocation_key(svc, {"x": (self._token("src", 0, 6),)})
        assert k1 != k2

    def test_service_identity_changes_key(self, engine):
        s1 = LocalService(engine, "S1", ("x",), ("y",))
        s2 = LocalService(engine, "S2", ("x",), ("y",))
        binding = {"x": (self._token("src", 0, 5),)}
        assert invocation_key(s1, binding) != invocation_key(s2, binding)

    def test_unordered_normalizes_stream_order(self, engine):
        """Synchronization keys are arrival-order independent."""
        svc = LocalService(engine, "sync", ("x",), ("y",))
        t0, t1 = self._token("s", 0, "a"), self._token("s", 1, "b")
        assert invocation_key(svc, {"x": (t0, t1)}, unordered=True) == invocation_key(
            svc, {"x": (t1, t0)}, unordered=True
        )
        assert invocation_key(svc, {"x": (t0, t1)}) != invocation_key(svc, {"x": (t1, t0)})


class TestServiceFingerprints:
    def test_wrapper_fingerprint_is_descriptor_derived(self, engine, ideal_grid):
        from repro.services.descriptor import (
            AccessMethod,
            ExecutableDescriptor,
            InputSpec,
            OutputSpec,
        )
        from repro.services.wrapper import GenericWrapperService

        def make(name, option):
            desc = ExecutableDescriptor(
                name=name,
                access=AccessMethod("URL", path="http://x"),
                value="prog.pl",
                inputs=(InputSpec(name="in1", option=option, access=AccessMethod("GFN")),),
                outputs=(OutputSpec(name="out1", option="-o"),),
            )
            return GenericWrapperService(engine, ideal_grid, desc)

        same_a = make("A", "-i").cache_fingerprint()
        same_b = make("A", "-i").cache_fingerprint()
        different = make("A", "-j").cache_fingerprint()
        assert same_a == same_b
        assert same_a != different

    def test_composite_covers_all_stages(self, engine, ideal_grid):
        from repro.services.descriptor import (
            AccessMethod,
            ExecutableDescriptor,
            InputSpec,
            OutputSpec,
        )
        from repro.services.composite import CompositeService
        from repro.services.wrapper import GenericWrapperService

        def stage(name, opt="-i"):
            desc = ExecutableDescriptor(
                name=name,
                access=AccessMethod("URL", path="http://x"),
                value=f"{name}.pl",
                inputs=(InputSpec(name="a", option=opt, access=AccessMethod("GFN")),),
                outputs=(OutputSpec(name="b", option="-o"),),
            )
            return GenericWrapperService(engine, ideal_grid, desc)

        links = {(1, "a"): (0, "b")}
        c1 = CompositeService(engine, [stage("s0"), stage("s1")], links)
        c2 = CompositeService(engine, [stage("s0"), stage("s1")], links)
        c3 = CompositeService(engine, [stage("s0"), stage("s1", opt="-z")], links)
        assert c1.cache_fingerprint() == c2.cache_fingerprint()
        # changing ANY stage invalidates the whole group's identity
        assert c1.cache_fingerprint() != c3.cache_fingerprint()

    def test_base_fallback_uses_class_and_ports(self, engine):
        s1 = LocalService(engine, "S", ("x",), ("y",))
        s2 = LocalService(engine, "S", ("x", "z"), ("y",))
        assert service_fingerprint(s1) != service_fingerprint(s2)

    def test_wrapper_descriptor_digest_follows_the_descriptor(
        self, engine, ideal_grid, monkeypatch
    ):
        import repro.services.wrapper as wrapper_module
        from repro.services.descriptor import (
            AccessMethod,
            ExecutableDescriptor,
            InputSpec,
            OutputSpec,
        )

        def descriptor(option):
            return ExecutableDescriptor(
                name="A",
                access=AccessMethod("URL", path="http://x"),
                value="prog.pl",
                inputs=(InputSpec(name="in1", option=option, access=AccessMethod("GFN")),),
                outputs=(OutputSpec(name="out1", option="-o"),),
            )

        serialized = []
        real = wrapper_module.descriptor_to_xml
        monkeypatch.setattr(
            wrapper_module, "descriptor_to_xml", lambda d: serialized.append(d) or real(d)
        )
        service = wrapper_module.GenericWrapperService(engine, ideal_grid, descriptor("-i"))
        first = service.cache_fingerprint()
        assert service.cache_fingerprint() == first and len(serialized) == 1
        service.descriptor = descriptor("-j")
        replaced = service.cache_fingerprint()
        assert replaced != first and len(serialized) == 2
        # output sizes are a mutable dict: never memoized
        service.output_sizes["out1"] = 5.0
        assert service.cache_fingerprint() != replaced and len(serialized) == 2


class TestTokenPayloadMemo:
    def test_payload_fingerprint_is_fingerprint_datum_once(self):
        token = DataToken(GridData(value=[1, 2.5]), HistoryTree.leaf("s", 0))
        memo = token.payload_fingerprint
        assert memo == fingerprint_datum(token.data)
        assert token.payload_fingerprint is memo

    def test_memo_stays_out_of_equality_and_hash(self):
        a = DataToken(GridData(value=3), HistoryTree.leaf("s", 0))
        b = DataToken(GridData(value=3), HistoryTree.leaf("s", 0))
        a.payload_fingerprint
        assert a == b and hash(a) == hash(b)


def figure2_loop(engine, factor, tolerance):
    """The Figure 2 loop of ``examples/optimization_loop.py``: ``P2``
    scales the residual by *factor* until ``P3`` sees it under
    *tolerance*, so every round deepens the lineage by two nodes."""
    programs = {
        "P1": lambda x: {"y": 1.0},
        "P2": lambda x: {"y": x * factor},
        "P3": lambda x: (
            {"loop": NO_DATA, "done": x} if x < tolerance else {"loop": x, "done": NO_DATA}
        ),
    }

    def factory(name, inputs, outputs):
        return LocalService(engine, name, inputs, outputs, function=programs[name], duration=1.0)

    return figure2_workflow(factory)


def run_cached_loop(factor, tolerance):
    engine = Engine()
    enactor = MoteurEnactor(
        engine, figure2_loop(engine, factor, tolerance), OptimizationConfig.sp(),
        cache=ResultCache(),
    )
    return enactor.run({"source": ["scan-A"]})


class TestDeepLineages:
    def test_long_loop_keys_without_recursion(self):
        # 378 rounds: the lineage is ~760 nodes deep, past the recursion
        # limit a recursive encoder needs one frame per node for.
        result = run_cached_loop(0.97, 1e-5)
        rounds = math.ceil(math.log(1e-5) / math.log(0.97))
        assert rounds == 378
        assert result.invocation_count == 1 + 2 * rounds
        (residual,) = result.output_values("sink")
        assert math.isclose(residual, 0.97 ** rounds)

    def test_fresh_deep_chain_encodes_and_measures(self):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        node = HistoryTree.leaf("s", 0)
        for _ in range(depth):
            node = HistoryTree.derive("p", (node,))
        assert node.depth == depth
        assert history_fingerprint(node) == "'p'(" * depth + "'s'[0]" + ")" * depth


def key_calls_per_invocation(rounds):
    """Calls made inside ``repro.cache.keys`` per invocation of the loop.

    A call counts when a ``repro.cache.keys`` frame is on the stack or
    is the callee (Python and C calls alike), so work a key function
    delegates — the history-tree encoding — is charged to it.
    """
    factor = 0.97
    engine = Engine()
    # converges after exactly *rounds* refinements: the threshold sits
    # half a step below factor**(rounds - 1)
    workflow = figure2_loop(engine, factor, factor ** (rounds - 0.5))
    enactor = MoteurEnactor(engine, workflow, OptimizationConfig.sp(), cache=ResultCache())
    inside = calls = 0

    def count(frame, event, arg):
        nonlocal inside, calls
        in_keys = frame.f_globals.get("__name__") == "repro.cache.keys"
        if event == "call":
            if inside or in_keys:
                calls += 1
            inside += in_keys
        elif event == "return":
            inside -= in_keys
        elif event == "c_call" and inside:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = enactor.run({"source": ["scan-A"]})
    finally:
        sys.setprofile(previous)
    assert result.invocation_count == 1 + 2 * rounds
    return calls / result.invocation_count


class TestKeyCost:
    def test_key_calls_per_invocation_do_not_grow_with_lineage_depth(self):
        # Deterministic complexity guard: counts calls, never reads a clock.
        # Re-encoding the whole lineage per key costs ~4 calls per lineage
        # node (219 per invocation at 50 rounds) and recurses past the
        # stack limit before 400; memoized fingerprints cost O(fan-in).
        small, large = key_calls_per_invocation(50), key_calls_per_invocation(400)
        assert large < 1.5 * small, (small, large)
