"""Tests for the end-to-end context-loading engine: ingest, routing over one
node and over many, failover, text fallback, tiers."""

from __future__ import annotations

import pytest

from repro.core import CacheGenConfig
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving.engine import ContextLoadingEngine

TOKENS = 2_200


@pytest.fixture(scope="module")
def engine():
    return ContextLoadingEngine("mistral-7b")


@pytest.fixture(scope="module")
def ingested(engine):
    return engine.ingest("report-2023", 2_200)


class TestIngest:
    def test_report_contents(self, ingested):
        assert ingested.context_id == "report-2023"
        assert ingested.num_chunks == 2
        assert set(ingested.stored_bytes_per_level) == {"high", "medium", "low", "lowest"}
        assert ingested.total_stored_bytes > 0

    def test_context_is_stored(self, engine, ingested):
        assert "report-2023" in engine.cluster
        assert "report-2023" in engine.stores()["node-0"]


class TestQuery:
    def test_query_uses_kv_cache(self, engine, ingested):
        response = engine.query("report-2023", "Summarise the revenue drivers.")
        assert response.used_kv_cache
        assert response.ttft_s > 0
        assert response.quality.relative_quality > 0.95
        assert response.transmitted_bytes > 0

    def test_query_not_ingested_falls_back_to_text(self, engine):
        response = engine.query("unknown-doc", "What is this?", num_tokens=1_500)
        assert not response.used_kv_cache
        assert response.chunk_configs == ["text"]

    def test_query_unknown_without_length_rejected(self, engine):
        with pytest.raises(ValueError, match="'unknown-doc-2' was never ingested"):
            engine.query("unknown-doc-2", "What is this?")

    def test_the_one_node_serves_and_is_named(self, engine, ingested):
        assert list(engine.cluster.nodes) == ["node-0"]
        assert engine.cluster.node("node-0").link is engine.link
        assert ingested.replica_node_ids == ("node-0",)
        assert ingested.replicated_bytes == ingested.total_stored_bytes
        response = engine.query("report-2023", "Who wrote it?")
        assert response.served_by == "node-0"
        assert response.attempted_node_ids == () and not response.failed_over

    def test_query_with_slo(self, engine, ingested):
        response = engine.query("report-2023", "Any risks mentioned?", slo_s=2.0)
        assert response.ttft_s > 0
        assert response.used_kv_cache

    def test_kv_path_faster_than_text_path(self, engine, ingested):
        kv_response = engine.query("report-2023", "Summarise.")
        text_response = engine.query("fresh-doc", "Summarise.", num_tokens=2_200)
        assert kv_response.ttft_s < text_response.ttft_s

    def test_accepts_model_config_instance(self):
        from repro.llm import MISTRAL_7B

        engine = ContextLoadingEngine(MISTRAL_7B)
        assert engine.model is MISTRAL_7B


class TestEvictedContext:
    def test_evicted_context_answers_from_text_degraded(self, fitted_codec):
        """The store forgets the bitstreams, not the length: no ``ValueError`` mid-run."""
        config = CacheGenConfig(chunk_tokens=256)
        probe = ContextLoadingEngine("mistral-7b", config=config, codec=fitted_codec())
        one = probe.ingest("probe", 640).total_stored_bytes
        engine = ContextLoadingEngine(
            "mistral-7b", config=config, max_bytes_per_node=1.5 * one, codec=fitted_codec()
        )
        engine.ingest("a", 640)
        engine.ingest("b", 640)  # evicts "a"
        assert "a" not in engine.cluster and "b" in engine.cluster
        response = engine.query("a", "?")
        assert not response.used_kv_cache and response.chunk_configs == ["text"]
        assert response.degraded and response.degrade_cause == "evicted"
        assert response.attempted_node_ids == ("node-0",)
        assert engine.query("b", "?").used_kv_cache


class TestReplaceLink:
    def test_swaps_the_text_link_and_the_nodes_serving_over_it(self, fitted_codec):
        engine = ContextLoadingEngine("mistral-7b", codec=fitted_codec())
        slow = NetworkLink(ConstantTrace(gbps(0.5)))
        engine.replace_link(slow)
        assert engine.link is slow and engine.cluster.node("node-0").link is slow

    def test_leaves_nodes_on_their_own_links_alone(self, fitted_codec):
        engine = ContextLoadingEngine("mistral-7b", node_links=2, codec=fitted_codec())
        before = [node.link for node in engine.cluster.nodes.values()]
        engine.replace_link(NetworkLink(ConstantTrace(gbps(0.5))))
        assert [node.link for node in engine.cluster.nodes.values()] == before


class TestReferenceMemoization:
    def test_reference_kv_computed_once_per_context(self, monkeypatch):
        engine = ContextLoadingEngine("mistral-7b")
        calls: list[str] = []
        original = engine.llm.calculate_kv

        def counting(context_id: str, num_tokens: int):
            calls.append(context_id)
            return original(context_id, num_tokens)

        monkeypatch.setattr(engine.llm, "calculate_kv", counting)
        engine.ingest("memo-doc", 2_200)
        assert calls.count("memo-doc") == 1
        engine.query("memo-doc", "First question?")
        engine.query("memo-doc", "Second question?")
        # Repeated queries reuse the reference computed at ingest instead of
        # re-prefilling the whole context every time.
        assert calls.count("memo-doc") == 1


@pytest.fixture(scope="module")
def cluster_engine(fitted_codec) -> ContextLoadingEngine:
    config = CacheGenConfig(chunk_tokens=1_024)
    links = [NetworkLink(ConstantTrace(gbps(3.0))) for _ in range(3)]
    return ContextLoadingEngine(
        "mistral-7b",
        node_links=links,
        replication_factor=2,
        config=config,
        codec=fitted_codec(),
    )


@pytest.fixture(scope="module")
def replicated(cluster_engine):
    return cluster_engine.ingest("report-2023", TOKENS)


class TestReplicatedIngest:
    def test_report_names_replicas(self, cluster_engine, replicated):
        assert len(replicated.replica_node_ids) == 2
        assert set(replicated.replica_node_ids) <= set(cluster_engine.cluster.nodes)
        assert replicated.replicated_bytes == pytest.approx(
            2 * replicated.total_stored_bytes
        )

    def test_context_visible_in_cluster(self, cluster_engine, replicated):
        assert "report-2023" in cluster_engine.cluster


class TestClusterQuery:
    def test_served_from_replica(self, cluster_engine, replicated):
        response = cluster_engine.query("report-2023", "Summarise the revenue drivers.")
        assert response.used_kv_cache
        assert response.served_by == replicated.replica_node_ids[0]
        assert not response.failed_over
        assert response.quality.relative_quality > 0.95

    def test_failover_to_backup_replica(self, cluster_engine, replicated):
        primary, backup = replicated.replica_node_ids
        cluster_engine.cluster.mark_down(primary)
        try:
            response = cluster_engine.query("report-2023", "Any risks?")
            assert response.used_kv_cache
            assert response.served_by == backup
            assert response.failed_over
            assert primary in response.attempted_node_ids
        finally:
            cluster_engine.cluster.mark_up(primary)

    def test_whole_cluster_down_falls_back_to_text(self, cluster_engine, replicated):
        for node_id in cluster_engine.cluster.nodes:
            cluster_engine.cluster.mark_down(node_id)
        try:
            # num_tokens omitted on purpose: the catalogue remembers it.
            response = cluster_engine.query("report-2023", "Still there?")
            assert not response.used_kv_cache
            assert response.served_by is None
            assert response.chunk_configs == ["text"]
        finally:
            for node_id in cluster_engine.cluster.nodes:
                cluster_engine.cluster.mark_up(node_id)

    def test_unknown_context_needs_num_tokens(self, cluster_engine):
        with pytest.raises(ValueError):
            cluster_engine.query("never-seen", "What is this?")
        response = cluster_engine.query("never-seen-2", "What is this?", num_tokens=1_500)
        assert not response.used_kv_cache

    def test_unknown_node_rejected(self, cluster_engine):
        with pytest.raises(KeyError):
            cluster_engine.cluster.mark_down("node-99")


class TestHeterogeneousLinks:
    def test_slow_replica_slower_than_fast_replica(self, fitted_codec):
        config = CacheGenConfig(chunk_tokens=1_024)
        links = [NetworkLink(ConstantTrace(gbps(3.0))), NetworkLink(ConstantTrace(gbps(0.4)))]
        engine = ContextLoadingEngine(
            "mistral-7b",
            node_links=links,
            replication_factor=2,
            config=config,
            codec=fitted_codec(),
        )
        report = engine.ingest("doc", TOKENS)
        assert set(report.replica_node_ids) == {"node-0", "node-1"}
        fast = engine.query("doc", "q?")
        engine.cluster.mark_down(fast.served_by)
        slow = engine.query("doc", "q?")
        by_node = {fast.served_by: fast, slow.served_by: slow}
        assert by_node["node-1"].ttft_s > by_node["node-0"].ttft_s


class TestTieredNodes:
    @pytest.fixture()
    def tight_engine(self, fitted_codec):
        """Hot tiers sized so two long contexts cannot both stay hot."""
        config = CacheGenConfig(chunk_tokens=1_024)
        probe = ContextLoadingEngine("mistral-7b", config=config, codec=fitted_codec())
        probe.ingest("probe", TOKENS)
        one = float(next(iter(probe.cluster.nodes.values())).store.storage_bytes())
        links = [NetworkLink(ConstantTrace(gbps(3.0))) for _ in range(2)]
        return ContextLoadingEngine(
            "mistral-7b",
            node_links=links,
            replication_factor=2,
            max_bytes_per_node=1.2 * one,
            cold_bytes_per_node=10 * one,
            config=config,
            codec=fitted_codec(),
        )

    def test_pressure_demotes_and_cold_hit_serves_kv(self, tight_engine):
        tight_engine.ingest("doc-a", TOKENS)
        tight_engine.ingest("doc-b", TOKENS)  # demotes doc-a on both nodes
        for node in tight_engine.cluster.nodes.values():
            assert node.store.eviction_count == 0
        response = tight_engine.query("doc-a", "What does it say?")
        assert response.used_kv_cache
        assert response.served_tier == "cold"
        assert response.tier_transfer_s > 0.0
        # The tier read is part of the reported TTFT's network component.
        assert response.ttft.network_s >= response.tier_transfer_s

    def test_cold_hit_slower_than_hot_hit_faster_than_text(self, tight_engine):
        tight_engine.ingest("doc-a", TOKENS)
        hot = tight_engine.query("doc-a", "Q?")
        assert hot.served_tier == "hot"
        tight_engine.ingest("doc-b", TOKENS)  # demotes doc-a
        cold = tight_engine.query("doc-a", "Q?")
        assert cold.served_tier == "cold"
        assert cold.ttft_s > hot.ttft_s
        text = tight_engine.query("doc-x", "Q?", num_tokens=TOKENS)
        assert cold.ttft_s < text.ttft_s

    def test_promotion_visible_on_next_query(self, tight_engine):
        tight_engine.ingest("doc-a", TOKENS)
        tight_engine.ingest("doc-b", TOKENS)
        first = tight_engine.query("doc-a", "Q?")
        second = tight_engine.query("doc-a", "Q?")
        assert first.served_tier == "cold"
        assert second.served_tier == "hot"
        assert second.ttft_s < first.ttft_s

    def test_cold_tier_requires_bounded_hot_tier(self, fitted_codec):
        with pytest.raises(ValueError):
            ContextLoadingEngine(
                "mistral-7b", node_links=2, cold_bytes_per_node=1e9, codec=fitted_codec()
            )

    def test_tier_links_must_match_node_count(self, fitted_codec):
        with pytest.raises(ValueError):
            ContextLoadingEngine(
                "mistral-7b",
                node_links=2,
                max_bytes_per_node=1e9,
                cold_bytes_per_node=1e9,
                tier_links=[NetworkLink()],
                codec=fitted_codec(),
            )
