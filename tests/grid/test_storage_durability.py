"""Durability plumbing: checksums, replica loss/quarantine, failover."""

import pytest

from repro.grid.storage import (
    LogicalFile,
    ReplicaCatalog,
    ReplicaUnavailableError,
    StorageElement,
    UnknownFileError,
)


class TestChecksums:
    def test_checksum_is_deterministic(self):
        a = LogicalFile("gfn://x", size=100)
        b = LogicalFile("gfn://x", size=100)
        assert a.checksum == b.checksum
        assert len(a.checksum) == 16

    def test_checksum_depends_on_identity(self):
        base = LogicalFile("gfn://x", size=100)
        assert base.checksum != LogicalFile("gfn://y", size=100).checksum
        assert base.checksum != LogicalFile("gfn://x", size=101).checksum


class TestReplicaHealth:
    def test_lost_replica_is_unhealthy_but_held(self):
        se = StorageElement("se0", site="s0")
        se.add("gfn://a")
        se.mark_lost("gfn://a")
        assert se.holds("gfn://a")
        assert not se.healthy("gfn://a")
        assert se.lost_count == 1

    def test_quarantine(self):
        se = StorageElement("se0", site="s0")
        se.add("gfn://a")
        se.quarantine("gfn://a")
        assert not se.healthy("gfn://a")
        assert se.quarantined_count == 1

    def test_readd_clears_bad_state(self):
        se = StorageElement("se0", site="s0")
        se.add("gfn://a")
        se.mark_lost("gfn://a")
        se.add("gfn://a")
        assert se.healthy("gfn://a")
        assert se.lost_count == 0


class TestFailover:
    def make_catalog(self):
        catalog = ReplicaCatalog()
        ses = {
            name: StorageElement(name, site=site)
            for name, site in (
                ("se-local", "here"),
                ("se-b", "there"),
                ("se-a", "elsewhere"),
            )
        }
        file = LogicalFile("gfn://x", size=100)
        for name in ("se-local", "se-b", "se-a"):
            catalog.register(file, ses[name])
        return catalog, ses

    def test_failover_order_prefers_local_then_name(self):
        catalog, ses = self.make_catalog()
        order = catalog.failover_order("gfn://x", "here")
        assert order[0] is ses["se-local"]
        # remotes sorted by SE name for determinism
        assert [se.name for se in order[1:]] == ["se-a", "se-b"]

    def test_failover_skips_unhealthy(self):
        catalog, ses = self.make_catalog()
        ses["se-local"].mark_lost("gfn://x")
        order = catalog.failover_order("gfn://x", "here")
        assert [se.name for se in order] == ["se-a", "se-b"]

    def test_exclude(self):
        catalog, ses = self.make_catalog()
        order = catalog.failover_order("gfn://x", "here", exclude=("se-a",))
        assert "se-a" not in [se.name for se in order]

    def test_healthy_replica_count(self):
        catalog, ses = self.make_catalog()
        assert catalog.healthy_replica_count("gfn://x") == 3
        ses["se-b"].quarantine("gfn://x")
        assert catalog.healthy_replica_count("gfn://x") == 2


class TestReplicaUnavailableError:
    def test_all_replicas_dead_raises_with_context(self):
        catalog = ReplicaCatalog()
        se = StorageElement("se0", site="s0")
        catalog.register(LogicalFile("gfn://x", size=10), se)
        se.mark_lost("gfn://x")
        with pytest.raises(ReplicaUnavailableError) as excinfo:
            catalog.closest_replica("gfn://x", "s0")
        assert excinfo.value.gfn == "gfn://x"
        assert excinfo.value.sites_tried == ("s0",)
        assert "no live replica" in str(excinfo.value)

    def test_unknown_file_is_a_different_error(self):
        catalog = ReplicaCatalog()
        with pytest.raises(UnknownFileError):
            catalog.closest_replica("gfn://never-registered", "s0")
        assert not issubclass(ReplicaUnavailableError, UnknownFileError)


class TestUnderReplicatedIndex:
    def test_index_follows_every_health_change(self):
        catalog = ReplicaCatalog()
        a, b = StorageElement("se-a", site="x"), StorageElement("se-b", site="y")
        catalog.register(LogicalFile("gfn://old", size=1), a)
        catalog.track_replication(2)
        assert catalog.under_replicated == {"gfn://old"}
        assert catalog.drain_joins() == {}
        catalog.register(LogicalFile("gfn://old", size=1), b)
        catalog.register(LogicalFile("gfn://new", size=1), a)
        assert catalog.under_replicated == {"gfn://new"}
        catalog.quarantine("gfn://old", b)
        assert catalog.under_replicated == {"gfn://new", "gfn://old"}
        # joins in order; True marks a GFN's first registration
        assert catalog.drain_joins() == {"gfn://new": True, "gfn://old": False}
        assert catalog.drain_joins() == {}
        # no healthy replica left: nothing to copy from, so out of the set
        catalog.mark_lost("gfn://old", a)
        assert catalog.under_replicated == {"gfn://new"}
        catalog.register(LogicalFile("gfn://old", size=1), b)  # re-add heals
        assert catalog.under_replicated == {"gfn://new", "gfn://old"}
        assert catalog.drain_joins() == {"gfn://old": False}
        catalog.register(LogicalFile("gfn://old", size=1), a)
        assert catalog.under_replicated == {"gfn://new"}

    def test_untracked_catalog_keeps_no_index(self):
        catalog = ReplicaCatalog()
        catalog.register(LogicalFile("gfn://x", size=1), StorageElement("se", site="s"))
        assert catalog.under_replicated == set()
        assert catalog.drain_joins() == {}

    def test_health_changes_need_a_known_gfn(self):
        catalog = ReplicaCatalog()
        se = StorageElement("se", site="s")
        with pytest.raises(UnknownFileError):
            catalog.mark_lost("gfn://never", se)
        with pytest.raises(UnknownFileError):
            catalog.quarantine("gfn://never", se)
