"""Tests for sharded placement, replication, failover and capacity pressure."""

from __future__ import annotations

import pytest

from repro.cluster import ShardedKVStore, StorageNode
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.storage import KVCacheStore, LRUPolicy, TieredKVStore


def _node(
    encoder,
    node_id: str,
    max_bytes: float | None = None,
    link: NetworkLink | None = None,
) -> StorageNode:
    return StorageNode(
        node_id,
        TieredKVStore(KVCacheStore(encoder, max_bytes=max_bytes, eviction_policy=LRUPolicy())),
        link=link,
    )


@pytest.fixture()
def cluster(encoder) -> ShardedKVStore:
    nodes = [_node(encoder, f"node-{i}") for i in range(4)]
    return ShardedKVStore(encoder, nodes, replication_factor=2)


class TestPlacement:
    def test_replication_factor_respected(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        assert len(placement.replica_node_ids) == 2
        holders = [
            node_id for node_id, node in cluster.nodes.items() if "doc" in node.store
        ]
        assert sorted(holders) == sorted(placement.replica_node_ids)

    def test_replicas_follow_ring_preference(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        assert list(placement.replica_node_ids) == cluster.ring.nodes_for("doc", 2)

    def test_down_node_skipped_at_ingest(self, cluster, kv):
        primary = cluster.ring.nodes_for("doc", 1)[0]
        cluster.mark_down(primary)
        placement = cluster.store_kv("doc", kv)
        assert primary not in placement.replica_node_ids
        assert primary in placement.skipped_node_ids
        assert len(placement.replica_node_ids) == 2

    def test_encode_happens_once(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        stored = [cluster.nodes[nid].store.get_context("doc") for nid in placement.replica_node_ids]
        # Replication ships bitstreams; both replicas hold the same encoding.
        assert stored[0] is stored[1]


class TestFailover:
    def test_lookup_prefers_primary(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        lookup = cluster.locate("doc")
        assert lookup.found
        assert lookup.node.node_id == placement.replica_node_ids[0]
        assert not lookup.failed_over

    def test_failover_returns_identical_bitstreams(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        primary, backup = placement.replica_node_ids[:2]
        before = cluster.nodes[primary].store.get_context("doc").chunks[0].encodings["medium"]
        cluster.mark_down(primary)
        lookup = cluster.locate("doc")
        assert lookup.found and lookup.failed_over
        assert lookup.node.node_id == backup
        after = lookup.node.store.get_context("doc").chunks[0].encodings["medium"]
        assert after.payload_bits == before.payload_bits
        assert after.compressed_bytes == before.compressed_bytes

    def test_all_replicas_down_is_a_full_miss(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        for node_id in placement.replica_node_ids:
            cluster.mark_down(node_id)
        lookup = cluster.locate("doc")
        assert not lookup.found
        assert "doc" not in cluster
        assert cluster.known_tokens("doc") == kv.num_tokens

    def test_recovery_restores_service(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        for node_id in placement.replica_node_ids:
            cluster.mark_down(node_id)
        cluster.mark_up(placement.replica_node_ids[0])
        assert cluster.locate("doc").found


class TestReplicaSelection:
    def test_faster_link_wins_over_ring_order(self, encoder, kv):
        slow = NetworkLink(ConstantTrace(gbps(0.2)))
        fast = NetworkLink(ConstantTrace(gbps(5.0)))
        nodes = [_node(encoder, "node-0", link=slow), _node(encoder, "node-1", link=fast)]
        cluster = ShardedKVStore(encoder, nodes, replication_factor=2)
        cluster.store_kv("doc", kv)
        # Both replicas hold the context; the modeled-fastest one serves it,
        # whatever the ring's preference order says.
        assert cluster.locate("doc").node.node_id == "node-1"

    def test_deeper_queue_deflects_to_other_replica(self, cluster, kv):
        placement = cluster.store_kv("doc", kv)
        primary, backup = placement.replica_node_ids
        assert cluster.locate("doc").node.node_id == primary
        cluster.node(primary).begin_serving()
        try:
            # With a request already streaming from the primary, the modeled
            # service time doubles and the idle backup replica wins.
            assert cluster.locate("doc").node.node_id == backup
        finally:
            cluster.node(primary).end_serving()
        assert cluster.locate("doc").node.node_id == primary

    def test_slower_replica_is_not_a_failover(self, encoder, kv):
        slow = NetworkLink(ConstantTrace(gbps(0.2)))
        fast = NetworkLink(ConstantTrace(gbps(5.0)))
        nodes = [_node(encoder, "node-0", link=slow), _node(encoder, "node-1", link=fast)]
        cluster = ShardedKVStore(encoder, nodes, replication_factor=2)
        cluster.store_kv("doc", kv)
        lookup = cluster.locate("doc")
        # Passing over a live-but-slower replica is a choice, not a failover.
        assert not lookup.failed_over
        assert cluster.stats.failovers == 0


class TestCapacityPressure:
    def test_squeeze_evicts_and_reports(self, encoder, llm):
        kv = llm.calculate_kv("sizing-probe", 320)
        one_context = KVCacheStore(encoder).store_kv("probe", kv).total_bytes()
        # Room for ~2 contexts per node.
        nodes = [_node(encoder, f"node-{i}", max_bytes=2.2 * one_context) for i in range(2)]
        cluster = ShardedKVStore(encoder, nodes, replication_factor=2)
        for i in range(4):
            cluster.store_kv(f"doc-{i}", llm.calculate_kv(f"doc-{i}", 320))
        assert cluster.total_evictions() > 0
        resident = {nid: len(node.store) for nid, node in cluster.nodes.items()}
        assert all(count <= 2 for count in resident.values())
        # Evicted contexts are still in the catalogue for the text fallback.
        assert all(cluster.known_tokens(f"doc-{i}") == 320 for i in range(4))


def _tiered_node(
    encoder,
    node_id: str,
    hot_bytes: float,
    cold_bytes: float | None = None,
    link: NetworkLink | None = None,
    tier_link: NetworkLink | None = None,
) -> StorageNode:
    hot = KVCacheStore(encoder, max_bytes=hot_bytes, eviction_policy=LRUPolicy())
    cold = KVCacheStore(None, max_bytes=cold_bytes)
    return StorageNode(node_id, TieredKVStore(hot, cold, tier_link=tier_link), link=link)


class TestTieredCluster:
    def _sized(self, encoder, llm):
        kv = llm.calculate_kv("sizing-probe", 320)
        return KVCacheStore(encoder).store_kv("probe", kv).total_bytes()

    def test_locate_prefers_hot_replica_over_cold(self, encoder, llm):
        """Failover order: hot replica first, cold tier only when no hot copy."""
        one = self._sized(encoder, llm)
        nodes = [
            _tiered_node(encoder, "node-0", hot_bytes=1.2 * one),
            _tiered_node(encoder, "node-1", hot_bytes=1.2 * one),
        ]
        cluster = ShardedKVStore(encoder, nodes, replication_factor=2)
        cluster.store_kv("doc", llm.calculate_kv("doc", 320))
        # Demote the ring-preferred replica's copy to its cold tier.
        primary = cluster.ring.nodes_for("doc", 1)[0]
        backup = next(nid for nid in cluster.nodes if nid != primary)
        cluster.nodes[primary].store.hot.evict("doc")
        cluster.nodes[primary].store.cold.store_prepared(
            cluster.nodes[backup].store.peek_context("doc")
        )
        lookup = cluster.locate("doc")
        assert lookup.tier == "hot"
        assert lookup.node.node_id == backup
        assert not lookup.cold_hit

    def test_cold_hit_promotes_on_the_serving_node(self, encoder, llm):
        one = self._sized(encoder, llm)
        nodes = [
            _tiered_node(encoder, f"node-{i}", hot_bytes=1.2 * one) for i in range(2)
        ]
        cluster = ShardedKVStore(encoder, nodes, replication_factor=2)
        cluster.store_kv("doc-0", llm.calculate_kv("doc-0", 320))
        cluster.store_kv("doc-1", llm.calculate_kv("doc-1", 320))  # demotes doc-0
        for node in nodes:
            node.store.flush_demotions()
        assert all(node.store.tier_of("doc-0") == "cold" for node in nodes)
        lookup = cluster.locate("doc-0")
        assert lookup.cold_hit
        assert lookup.node.store.tier_of("doc-0") == "hot"
        assert cluster.stats.cold_lookup_hits == 1

    def test_capacity_pressure_demotes_and_serves_without_text_fallback(
        self, encoder, llm
    ):
        one = self._sized(encoder, llm)
        nodes = [
            _tiered_node(encoder, f"node-{i}", hot_bytes=2.2 * one) for i in range(2)
        ]
        cluster = ShardedKVStore(encoder, nodes, replication_factor=2)
        for i in range(4):
            cluster.store_kv(f"doc-{i}", llm.calculate_kv(f"doc-{i}", 320))
        # Everything is still resident somewhere: no full misses, no drops.
        assert cluster.total_evictions() == 0
        for i in range(4):
            assert cluster.locate(f"doc-{i}").found
        assert cluster.stats.full_misses == 0
