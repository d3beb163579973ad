"""Tests for the service registry."""

import pytest

from repro.services.base import LocalService
from repro.services.registry import ServiceRegistry


@pytest.fixture
def registry(engine):
    reg = ServiceRegistry()
    reg.register(
        LocalService(engine, "crestLines", ("img",), ("crest",)),
        description="crest line extraction",
        tags={"domain": "imaging"},
    )
    reg.register(
        LocalService(engine, "crestMatch", ("crest",), ("transform",)),
        tags={"domain": "imaging", "kind": "registration"},
    )
    reg.register(LocalService(engine, "stats", ("values",), ("mean",)))
    return reg


class TestRegistry:
    def test_resolve(self, registry):
        assert registry.resolve("crestLines").name == "crestLines"

    def test_resolve_unknown_raises(self, registry):
        with pytest.raises(KeyError, match="no service"):
            registry.resolve("nope")

    def test_duplicate_registration_rejected(self, registry, engine):
        with pytest.raises(ValueError, match="already"):
            registry.register(LocalService(engine, "stats", ("x",), ("y",)))

    def test_contains(self, registry):
        assert "crestLines" in registry
        assert "zzz" not in registry
