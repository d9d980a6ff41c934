"""Tests for the cluster serving frontend: routing, failover, text fallback."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterFrontend
from repro.core import CacheGenConfig
from repro.network import ConstantTrace, NetworkLink, gbps

TOKENS = 2_200


@pytest.fixture(scope="module")
def frontend(fitted_codec) -> ClusterFrontend:
    config = CacheGenConfig(chunk_tokens=1_024)
    links = [NetworkLink(ConstantTrace(gbps(3.0))) for _ in range(3)]
    return ClusterFrontend(
        "mistral-7b",
        node_links=links,
        replication_factor=2,
        config=config,
        codec=fitted_codec(),
    )


@pytest.fixture(scope="module")
def ingested(frontend):
    return frontend.ingest("report-2023", TOKENS)


class TestIngest:
    def test_report_names_replicas(self, frontend, ingested):
        assert len(ingested.replica_node_ids) == 2
        assert set(ingested.replica_node_ids) <= set(frontend.nodes)
        assert ingested.replicated_bytes == pytest.approx(
            2 * ingested.total_stored_bytes
        )

    def test_context_visible_in_cluster(self, frontend, ingested):
        assert "report-2023" in frontend.cluster


class TestQuery:
    def test_served_from_replica(self, frontend, ingested):
        response = frontend.query("report-2023", "Summarise the revenue drivers.")
        assert response.used_kv_cache
        assert response.served_by == ingested.replica_node_ids[0]
        assert not response.failed_over
        assert response.quality.relative_quality > 0.95

    def test_failover_to_backup_replica(self, frontend, ingested):
        primary, backup = ingested.replica_node_ids
        frontend.mark_down(primary)
        try:
            response = frontend.query("report-2023", "Any risks?")
            assert response.used_kv_cache
            assert response.served_by == backup
            assert response.failed_over
            assert primary in response.attempted_node_ids
        finally:
            frontend.mark_up(primary)

    def test_whole_cluster_down_falls_back_to_text(self, frontend, ingested):
        for node_id in frontend.nodes:
            frontend.mark_down(node_id)
        try:
            # num_tokens omitted on purpose: the catalogue remembers it.
            response = frontend.query("report-2023", "Still there?")
            assert not response.used_kv_cache
            assert response.served_by is None
            assert response.chunk_configs == ["text"]
        finally:
            for node_id in frontend.nodes:
                frontend.mark_up(node_id)

    def test_unknown_context_needs_num_tokens(self, frontend):
        with pytest.raises(ValueError):
            frontend.query("never-seen", "What is this?")
        response = frontend.query("never-seen-2", "What is this?", num_tokens=1_500)
        assert not response.used_kv_cache

    def test_unknown_node_rejected(self, frontend):
        with pytest.raises(KeyError):
            frontend.mark_down("node-99")


class TestHeterogeneousLinks:
    def test_slow_replica_slower_than_fast_replica(self, fitted_codec):
        config = CacheGenConfig(chunk_tokens=1_024)
        links = [NetworkLink(ConstantTrace(gbps(3.0))), NetworkLink(ConstantTrace(gbps(0.4)))]
        frontend = ClusterFrontend(
            "mistral-7b",
            node_links=links,
            replication_factor=2,
            config=config,
            codec=fitted_codec(),
        )
        report = frontend.ingest("doc", TOKENS)
        assert set(report.replica_node_ids) == {"node-0", "node-1"}
        fast = frontend.query("doc", "q?")
        frontend.mark_down(fast.served_by)
        slow = frontend.query("doc", "q?")
        by_node = {fast.served_by: fast, slow.served_by: slow}
        assert by_node["node-1"].ttft_s > by_node["node-0"].ttft_s


class TestTieredFrontend:
    @pytest.fixture()
    def tight_frontend(self, fitted_codec):
        """Hot tiers sized so two long contexts cannot both stay hot."""
        config = CacheGenConfig(chunk_tokens=1_024)
        probe = ClusterFrontend("mistral-7b", node_links=1, config=config, codec=fitted_codec())
        probe.ingest("probe", TOKENS)
        one = float(next(iter(probe.nodes.values())).store.storage_bytes())
        links = [NetworkLink(ConstantTrace(gbps(3.0))) for _ in range(2)]
        return ClusterFrontend(
            "mistral-7b",
            node_links=links,
            replication_factor=2,
            max_bytes_per_node=1.2 * one,
            cold_bytes_per_node=10 * one,
            config=config,
            codec=fitted_codec(),
        )

    def test_pressure_demotes_and_cold_hit_serves_kv(self, tight_frontend):
        tight_frontend.ingest("doc-a", TOKENS)
        tight_frontend.ingest("doc-b", TOKENS)  # demotes doc-a on both nodes
        for node in tight_frontend.nodes.values():
            assert node.store.eviction_count == 0
        response = tight_frontend.query("doc-a", "What does it say?")
        assert response.used_kv_cache
        assert response.served_tier == "cold"
        assert response.tier_transfer_s > 0.0
        # The tier read is part of the reported TTFT's network component.
        assert response.ttft.network_s >= response.tier_transfer_s

    def test_cold_hit_slower_than_hot_hit_faster_than_text(self, tight_frontend):
        tight_frontend.ingest("doc-a", TOKENS)
        hot = tight_frontend.query("doc-a", "Q?")
        assert hot.served_tier == "hot"
        tight_frontend.ingest("doc-b", TOKENS)  # demotes doc-a
        cold = tight_frontend.query("doc-a", "Q?")
        assert cold.served_tier == "cold"
        assert cold.ttft_s > hot.ttft_s
        text = tight_frontend.query("doc-x", "Q?", num_tokens=TOKENS)
        assert cold.ttft_s < text.ttft_s

    def test_promotion_visible_on_next_query(self, tight_frontend):
        tight_frontend.ingest("doc-a", TOKENS)
        tight_frontend.ingest("doc-b", TOKENS)
        first = tight_frontend.query("doc-a", "Q?")
        second = tight_frontend.query("doc-a", "Q?")
        assert first.served_tier == "cold"
        assert second.served_tier == "hot"
        assert second.ttft_s < first.ttft_s

    def test_cold_tier_requires_bounded_hot_tier(self, fitted_codec):
        with pytest.raises(ValueError):
            ClusterFrontend(
                "mistral-7b", node_links=2, cold_bytes_per_node=1e9, codec=fitted_codec()
            )

    def test_tier_links_must_match_node_count(self, fitted_codec):
        with pytest.raises(ValueError):
            ClusterFrontend(
                "mistral-7b",
                node_links=2,
                max_bytes_per_node=1e9,
                cold_bytes_per_node=1e9,
                tier_links=[NetworkLink()],
                codec=fitted_codec(),
            )
