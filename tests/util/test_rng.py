"""Tests for reproducible named random streams."""

import numpy as np
import pytest

from repro.util.rng import RandomStreams, stable_hash64


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("overhead") == stable_hash64("overhead")

    def test_distinct_names_distinct_hashes(self):
        names = [f"stream-{i}" for i in range(100)]
        hashes = {stable_hash64(n) for n in names}
        assert len(hashes) == 100

    def test_fits_in_64_bits(self):
        assert 0 <= stable_hash64("x") < 2**64


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(seed=7).get("alpha").random(10)
        b = RandomStreams(seed=7).get("alpha").random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("alpha").random(10)
        b = RandomStreams(seed=2).get("alpha").random(10)
        assert not np.array_equal(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(seed=7)
        a = streams.get("alpha").random(10)
        b = streams.get("beta").random(10)
        assert not np.array_equal(a, b)

    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=0)
        assert streams.get("x") is streams.get("x")

    def test_order_of_creation_does_not_matter(self):
        s1 = RandomStreams(seed=3)
        s1.get("a")
        draw1 = s1.get("b").random()

        s2 = RandomStreams(seed=3)
        draw2 = s2.get("b").random()  # "a" never created
        assert draw1 == draw2

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams(seed="42")

    def test_names_lists_created_streams(self):
        streams = RandomStreams(seed=0)
        streams.get("b")
        streams.get("a")
        assert list(streams.names()) == ["a", "b"]

    def test_seed_property(self):
        assert RandomStreams(seed=9).seed == 9
