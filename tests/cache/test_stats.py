"""Cache statistics: counters, snapshots and per-run deltas."""

from repro.cache.stats import CacheStats, CacheStatsSnapshot, ServiceCacheStats


class TestServiceCacheStats:
    def test_hit_rate_counts_coalesced_as_avoided_work(self):
        stats = ServiceCacheStats(hits=2, misses=1, coalesced=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75

    def test_hit_rate_of_nothing_is_zero(self):
        assert ServiceCacheStats().hit_rate == 0.0

    def test_add_and_sub_are_fieldwise(self):
        a = ServiceCacheStats(hits=3, misses=2, stores=2, bytes_stored=100)
        b = ServiceCacheStats(hits=1, misses=1, stores=1, bytes_stored=40)
        assert (a + b).hits == 4
        assert (a - b) == ServiceCacheStats(hits=2, misses=1, stores=1, bytes_stored=60)


class TestCacheStats:
    def test_counters_accumulate_per_service(self):
        stats = CacheStats()
        stats.record_miss("crestLines")
        stats.record_store("crestLines", 128)
        stats.record_hit("crestLines")
        stats.record_coalesced("crestLines")
        stats.record_miss("PFMatchICP")
        snap = stats.snapshot()
        cl = snap.per_service["crestLines"]
        assert (cl.hits, cl.misses, cl.coalesced, cl.stores, cl.bytes_stored) == (
            1, 1, 1, 1, 128,
        )
        assert snap.per_service["PFMatchICP"].misses == 1

    def test_snapshot_is_frozen_in_time(self):
        stats = CacheStats()
        stats.record_hit("S")
        before = stats.snapshot()
        stats.record_hit("S")
        assert before.per_service["S"].hits == 1
        assert stats.snapshot().per_service["S"].hits == 2

    def test_snapshot_ignores_every_later_bump(self):
        """The live counters are mutable; a snapshot must share none of them."""
        stats = CacheStats()
        stats.record_miss("S")
        stats.record_store("S", 64)
        before = stats.snapshot()
        copy = dict(before.per_service)
        stats.record_hit("S")
        stats.record_miss("S")
        stats.record_coalesced("S")
        stats.record_store("S", 32)
        stats.record_hit("T")
        assert before.per_service == copy == {
            "S": ServiceCacheStats(misses=1, stores=1, bytes_stored=64)
        }
        assert stats.snapshot().per_service["S"] == ServiceCacheStats(
            hits=1, misses=2, coalesced=1, stores=2, bytes_stored=96
        )


class TestSnapshotAlgebra:
    def test_total_sums_services(self):
        snap = CacheStatsSnapshot(
            per_service={
                "A": ServiceCacheStats(hits=2, misses=1),
                "B": ServiceCacheStats(hits=1, misses=1),
            }
        )
        assert snap.total.hits == 3
        assert snap.total.lookups == 5
        assert snap.hit_rate == 3 / 5

    def test_delta_drops_idle_services(self):
        """Per-run numbers from a shared, accumulating cache."""
        stats = CacheStats()
        stats.record_miss("A")
        stats.record_store("A", 10)
        baseline = stats.snapshot()
        # run 2 touches only B
        stats.record_hit("B")
        delta = stats.snapshot() - baseline
        assert set(delta.per_service) == {"B"}
        assert delta.per_service["B"].hits == 1

    def test_iteration_is_name_sorted(self):
        snap = CacheStatsSnapshot(
            per_service={"z": ServiceCacheStats(hits=1), "a": ServiceCacheStats(misses=1)}
        )
        assert [name for name, _ in snap] == ["a", "z"]
        assert snap.services() == ("a", "z")
