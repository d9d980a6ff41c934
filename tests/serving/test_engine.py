"""Tests for the serving backend: ingest, routing over one
node and over many, failover, text fallback, tiers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import serve_one
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving.api import ServeRequest, ServingSpec, build_backend

TOKENS = 2_200


def query(backend, context_id, question, **fields):
    return serve_one(backend, ServeRequest(context_id, question, **fields))


@pytest.fixture(scope="module")
def backend(fitted_codec):
    return build_backend(ServingSpec(), codec=fitted_codec())


@pytest.fixture(scope="module")
def ingested(backend):
    return backend.ingest("report-2023", 2_200)


class TestIngest:
    def test_report_contents(self, ingested):
        assert ingested.context_id == "report-2023"
        assert ingested.num_chunks == 2
        assert set(ingested.stored_bytes_per_level) == {"high", "medium", "low", "lowest"}
        assert ingested.total_stored_bytes > 0

    def test_context_is_stored(self, backend, ingested):
        assert "report-2023" in backend.cluster
        assert "report-2023" in backend.stores()["node-0"]


class TestQuery:
    def test_query_uses_kv_cache(self, backend, ingested):
        response = query(backend, "report-2023", "Summarise the revenue drivers.")
        assert response.used_kv_cache
        assert response.ttft_s > 0
        assert response.quality.relative_quality > 0.95
        assert response.transmitted_bytes > 0

    def test_query_not_ingested_falls_back_to_text(self, backend):
        response = query(backend, "unknown-doc", "What is this?", num_tokens=1_500)
        assert not response.used_kv_cache
        assert response.chunk_configs == ["text"]

    def test_query_unknown_without_length_rejected(self, backend):
        with pytest.raises(ValueError, match="'unknown-doc-2' was never ingested"):
            query(backend, "unknown-doc-2", "What is this?")

    def test_the_one_node_serves_and_is_named(self, backend, ingested):
        assert list(backend.cluster.nodes) == ["node-0"]
        assert backend.cluster.node("node-0").link is backend.link
        assert ingested.replica_node_ids == ("node-0",)
        assert ingested.replicated_bytes == ingested.total_stored_bytes
        response = query(backend, "report-2023", "Who wrote it?")
        assert response.served_by == "node-0"
        assert response.attempted_node_ids == () and not response.failed_over

    def test_query_with_slo(self, backend, ingested):
        response = query(backend, "report-2023", "Any risks mentioned?", slo_s=2.0)
        assert response.ttft_s > 0
        assert response.used_kv_cache

    def test_kv_path_faster_than_text_path(self, backend, ingested):
        kv_response = query(backend, "report-2023", "Summarise.")
        text_response = query(backend, "fresh-doc", "Summarise.", num_tokens=2_200)
        assert kv_response.ttft_s < text_response.ttft_s

    def test_accepts_model_config_instance(self, fitted_codec):
        from repro.llm import MISTRAL_7B

        backend = build_backend(ServingSpec(model=MISTRAL_7B), codec=fitted_codec())
        assert backend.model is MISTRAL_7B


class TestEvictedContext:
    def test_evicted_context_answers_from_text_degraded(self, fitted_codec):
        """The store forgets the bitstreams, not the length: no ``ValueError`` mid-run."""
        spec = ServingSpec(chunk_tokens=256)
        probe = build_backend(spec, codec=fitted_codec())
        one = probe.ingest("probe", 640).total_stored_bytes
        backend = build_backend(replace(spec, max_bytes_per_node=1.5 * one), codec=fitted_codec())
        backend.ingest("a", 640)
        backend.ingest("b", 640)  # evicts "a"
        assert "a" not in backend.cluster and "b" in backend.cluster
        response = query(backend, "a", "?")
        assert not response.used_kv_cache and response.chunk_configs == ["text"]
        assert response.degraded and response.degrade_cause == "evicted"
        assert response.attempted_node_ids == ("node-0",)
        assert query(backend, "b", "?").used_kv_cache


class TestReplaceLink:
    def test_swaps_the_text_link_and_the_nodes_serving_over_it(self, fitted_codec):
        backend = build_backend(ServingSpec(), codec=fitted_codec())
        slow = NetworkLink(ConstantTrace(gbps(0.5)))
        backend.replace_link(slow)
        assert backend.link is slow and backend.cluster.node("node-0").link is slow

    def test_leaves_nodes_on_their_own_links_alone(self, fitted_codec):
        spec = ServingSpec(topology="cluster", num_nodes=2)
        backend = build_backend(spec, codec=fitted_codec())
        before = [node.link for node in backend.cluster.nodes.values()]
        backend.replace_link(NetworkLink(ConstantTrace(gbps(0.5))))
        assert [node.link for node in backend.cluster.nodes.values()] == before


class TestReferenceComputation:
    def test_reference_kv_computed_once_per_ingest(self, monkeypatch, fitted_codec):
        backend = build_backend(ServingSpec(), codec=fitted_codec())
        calls: list[str] = []
        original = backend.llm.calculate_kv

        def counting(context_id: str, num_tokens: int):
            calls.append(context_id)
            return original(context_id, num_tokens)

        monkeypatch.setattr(backend.llm, "calculate_kv", counting)
        backend.ingest("memo-doc", 2_200)
        assert calls.count("memo-doc") == 1
        (store,) = backend.stores().values()
        first = store.peek_context("memo-doc")
        query(backend, "memo-doc", "First question?")
        query(backend, "memo-doc", "Second question?")
        # Reads are scored from the record's statistics: no prefill at all.
        assert calls.count("memo-doc") == 1
        # A re-ingest prefills again, deterministically: the same statistics.
        backend.ingest("memo-doc", 2_200)
        assert calls.count("memo-doc") == 2
        again = store.peek_context("memo-doc")
        assert again is not first
        assert np.array_equal(again.variance, first.variance)
        for old, new in zip(first.chunks, again.chunks):
            for level, error in old.squared_error.items():
                assert np.array_equal(new.squared_error[level], error)


@pytest.fixture(scope="module")
def cluster_backend(fitted_codec):
    spec = ServingSpec(
        topology="cluster",
        num_nodes=3,
        replication=2,
        node_bandwidths_gbps=(3.0, 3.0, 3.0),
        chunk_tokens=1_024,
    )
    return build_backend(spec, codec=fitted_codec())


@pytest.fixture(scope="module")
def replicated(cluster_backend):
    return cluster_backend.ingest("report-2023", TOKENS)


class TestReplicatedIngest:
    def test_report_names_replicas(self, cluster_backend, replicated):
        assert len(replicated.replica_node_ids) == 2
        assert set(replicated.replica_node_ids) <= set(cluster_backend.cluster.nodes)
        assert replicated.replicated_bytes == pytest.approx(
            2 * replicated.total_stored_bytes
        )

    def test_context_visible_in_cluster(self, cluster_backend, replicated):
        assert "report-2023" in cluster_backend.cluster


class TestClusterQuery:
    def test_served_from_replica(self, cluster_backend, replicated):
        response = query(cluster_backend, "report-2023", "Summarise the revenue drivers.")
        assert response.used_kv_cache
        assert response.served_by == replicated.replica_node_ids[0]
        assert not response.failed_over
        assert response.quality.relative_quality > 0.95

    def test_failover_to_backup_replica(self, cluster_backend, replicated):
        primary, backup = replicated.replica_node_ids
        cluster_backend.cluster.mark_down(primary)
        try:
            response = query(cluster_backend, "report-2023", "Any risks?")
            assert response.used_kv_cache
            assert response.served_by == backup
            assert response.failed_over
            assert primary in response.attempted_node_ids
        finally:
            cluster_backend.cluster.mark_up(primary)

    def test_whole_cluster_down_falls_back_to_text(
        self, cluster_backend, replicated
    ):
        for node_id in cluster_backend.cluster.nodes:
            cluster_backend.cluster.mark_down(node_id)
        try:
            # num_tokens omitted on purpose: the catalogue remembers it.
            response = query(cluster_backend, "report-2023", "Still there?")
            assert not response.used_kv_cache
            assert response.served_by is None
            assert response.chunk_configs == ["text"]
        finally:
            for node_id in cluster_backend.cluster.nodes:
                cluster_backend.cluster.mark_up(node_id)

    def test_unknown_context_needs_num_tokens(self, cluster_backend):
        with pytest.raises(ValueError):
            query(cluster_backend, "never-seen", "What is this?")
        response = query(cluster_backend, "never-seen-2", "What is this?", num_tokens=1_500)
        assert not response.used_kv_cache

    def test_unknown_node_rejected(self, cluster_backend):
        with pytest.raises(KeyError):
            cluster_backend.cluster.mark_down("node-99")


class TestHeterogeneousLinks:
    def test_slow_replica_slower_than_fast_replica(self, fitted_codec):
        spec = ServingSpec(
            topology="cluster",
            num_nodes=2,
            replication=2,
            node_bandwidths_gbps=(3.0, 0.4),
            chunk_tokens=1_024,
        )
        backend = build_backend(spec, codec=fitted_codec())
        report = backend.ingest("doc", TOKENS)
        assert set(report.replica_node_ids) == {"node-0", "node-1"}
        fast = query(backend, "doc", "q?")
        backend.cluster.mark_down(fast.served_by)
        slow = query(backend, "doc", "q?")
        by_node = {fast.served_by: fast, slow.served_by: slow}
        assert by_node["node-1"].ttft_s > by_node["node-0"].ttft_s


class TestTieredNodes:
    @pytest.fixture()
    def tight_backend(self, fitted_codec):
        """Hot tiers sized so two long contexts cannot both stay hot."""
        probe = build_backend(ServingSpec(chunk_tokens=1_024), codec=fitted_codec())
        probe.ingest("probe", TOKENS)
        one = float(next(iter(probe.cluster.nodes.values())).store.storage_bytes())
        spec = ServingSpec(
            topology="tiered",
            num_nodes=2,
            replication=2,
            node_bandwidths_gbps=(3.0, 3.0),
            max_bytes_per_node=1.2 * one,
            cold_bytes_per_node=10 * one,
            chunk_tokens=1_024,
        )
        return build_backend(spec, codec=fitted_codec())

    def test_pressure_demotes_and_cold_hit_serves_kv(self, tight_backend):
        tight_backend.ingest("doc-a", TOKENS)
        tight_backend.ingest("doc-b", TOKENS)  # demotes doc-a on both nodes
        for node in tight_backend.cluster.nodes.values():
            assert node.store.eviction_count == 0
        response = query(tight_backend, "doc-a", "What does it say?")
        assert response.used_kv_cache
        assert response.served_tier == "cold"
        assert response.tier_transfer_s > 0.0
        # The tier read is part of the reported TTFT's network component.
        assert response.ttft.network_s >= response.tier_transfer_s

    def test_cold_hit_slower_than_hot_hit_faster_than_text(self, tight_backend):
        tight_backend.ingest("doc-a", TOKENS)
        hot = query(tight_backend, "doc-a", "Q?")
        assert hot.served_tier == "hot"
        tight_backend.ingest("doc-b", TOKENS)  # demotes doc-a
        cold = query(tight_backend, "doc-a", "Q?")
        assert cold.served_tier == "cold"
        assert cold.ttft_s > hot.ttft_s
        text = query(tight_backend, "doc-x", "Q?", num_tokens=TOKENS)
        assert cold.ttft_s < text.ttft_s

    def test_promotion_visible_on_next_query(self, tight_backend):
        tight_backend.ingest("doc-a", TOKENS)
        tight_backend.ingest("doc-b", TOKENS)
        first = query(tight_backend, "doc-a", "Q?")
        second = query(tight_backend, "doc-a", "Q?")
        assert first.served_tier == "cold"
        assert second.served_tier == "hot"
        assert second.ttft_s < first.ttft_s

    def test_cold_tier_requires_bounded_hot_tier(self, fitted_codec):
        with pytest.raises(ValueError):
            build_backend(
                ServingSpec(topology="cluster", num_nodes=2, cold_bytes_per_node=1e9),
                codec=fitted_codec(),
            )
