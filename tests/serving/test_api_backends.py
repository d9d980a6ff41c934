"""The unified backends: one spec, three engines, one response schema."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import CacheGenConfig
from repro.serving import ServeRequest, ServeResponse, ServingSpec
from repro.serving.api import build_backend, serve
from repro.serving.engine import ContextLoadingEngine

BASE = ServingSpec(model="mistral-7b", chunk_tokens=256)
REQUESTS = [
    ServeRequest("api-doc", f"Question {i}?", arrival_s=0.05 * i, num_tokens=640)
    for i in range(3)
]


@pytest.fixture(scope="module")
def reports(fitted_codec):
    """The same workload served through all three backends."""
    return {
        "single": serve(BASE, REQUESTS, codec=fitted_codec()),
        "concurrent": serve(BASE.with_(concurrency=3), REQUESTS, codec=fitted_codec()),
        "cluster": serve(
            BASE.with_(topology="cluster", num_nodes=2, replication=2, concurrency=3),
            REQUESTS,
            codec=fitted_codec(),
        ),
    }


class TestEndToEnd:
    def test_every_backend_serves_every_request(self, reports):
        for report in reports.values():
            assert report.num_requests == len(REQUESTS)
            assert report.kv_served == len(REQUESTS)
            assert report.hard_failures == 0
            assert report.shed == 0

    def test_unified_response_schema(self, reports):
        """All three backends populate the exact same field set."""
        field_sets = {}
        for kind, report in reports.items():
            assert len(report.responses) == len(REQUESTS)
            for response in report.responses:
                assert isinstance(response, ServeResponse)
            field_sets[kind] = {
                f.name for f in fields(report.responses[0])
            }
        assert field_sets["single"] == field_sets["concurrent"] == field_sets["cluster"]
        # And the unified fields are really there, not just defaulted away.
        for report in reports.values():
            response = report.responses[0]
            assert response.used_kv_cache
            assert response.served_tier == "hot"
            assert response.ttft_s > 0
            assert response.finish_s >= response.arrival_s
            assert response.queueing_s >= 0.0

    def test_every_topology_names_the_serving_node(self, reports):
        # The single topology is the one-node cluster: its node is "node-0".
        assert all(r.served_by == "node-0" for r in reports["single"].responses)
        assert all(r.served_by == "node-0" for r in reports["concurrent"].responses)
        assert all(r.served_by is not None for r in reports["cluster"].responses)

    def test_reports_share_one_shape(self, reports):
        for report in reports.values():
            assert report.ttft.count == len(REQUESTS)
            assert report.queueing is not None
            assert report.ingests == 1  # one context, ingested on first touch
            assert report.query_bytes > 0
            assert report.duration_s > 0
            assert report.throughput_rps > 0

    def test_report_formats_as_table(self, reports):
        for kind, report in reports.items():
            table = report.format_table()
            assert "requests" in table
            assert "TTFT" in table
            assert "arrivals" in table
        assert "node-0" in reports["cluster"].format_table()

    def test_report_ratio_properties(self, reports):
        report = reports["cluster"]
        assert report.hit_ratio == 1.0
        assert report.hot_hit_ratio == 1.0
        assert report.cold_hit_ratio == 0.0
        assert report.shed_ratio == 0.0
        assert report.bytes_moved == report.replication_bytes + report.query_bytes

    def test_serve_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            serve(BASE)
        with pytest.raises(ValueError, match="exactly one"):
            serve(BASE, REQUESTS, workload=object())


class TestOneExecutor:
    """Every request is played on the event engine; ``concurrency`` selects nothing."""

    # The second request arrives while the first still holds the link.
    OVERLAPPING = [
        ServeRequest("api-doc", "First?", arrival_s=0.0),
        ServeRequest("api-doc", "Second?", arrival_s=0.001),
        ServeRequest("never-ingested", "Third?", arrival_s=0.002, num_tokens=640),
    ]

    def _serve(self, spec, codec):
        backend = build_backend(spec, codec=codec)
        backend.ingest("api-doc", 640)
        for request in self.OVERLAPPING:
            backend.submit(request)
        return backend.run()

    def test_overlapping_requests_contend_on_a_default_spec(self, fitted_codec):
        _, second, third = self._serve(BASE, fitted_codec())
        assert second.queueing_s > 0.0
        assert third.queueing_s > 0.0

    def test_declared_concurrency_changes_nothing(self, fitted_codec):
        alone = self._serve(BASE, fitted_codec())
        declared = self._serve(BASE.with_(concurrency=8), fitted_codec())
        for one, eight in zip(alone, declared, strict=True):
            assert one.ttft == eight.ttft
            assert list(one.chunk_configs) == list(eight.chunk_configs)
            assert one.transmitted_bytes == eight.transmitted_bytes
            assert (one.arrival_s, one.finish_s) == (eight.arrival_s, eight.finish_s)


class TestDeprecationShims:
    """Direct construction of an engine builds the same stack as the spec."""

    def test_engine_shim_matches_single_backend(self, fitted_codec):
        spec = BASE.with_(max_bytes_per_node=5e8, eviction_policy="lfu")
        backend = build_backend(spec, codec=fitted_codec())
        legacy = ContextLoadingEngine(
            "mistral-7b",
            config=CacheGenConfig(chunk_tokens=256),
            max_bytes_per_node=5e8,
            eviction_policy="lfu",
            codec=fitted_codec(),
        )
        assert backend.engine.config == legacy.config
        (ours,), (theirs,) = backend.engine.stores().values(), legacy.stores().values()
        assert ours.max_bytes == theirs.max_bytes
        assert type(ours.eviction_policy) is type(theirs.eviction_policy)
        assert backend.engine.model.name == legacy.model.name

    def test_event_backend_builds_sim_from_spec(self, fitted_codec):
        spec = BASE.with_(concurrency=4, max_decode_batch=8, admission_limit=2)
        backend = build_backend(spec, codec=fitted_codec())
        assert backend.last_sim is None
        backend.submit(ServeRequest("never-ingested", "Q?", num_tokens=320))
        backend.run()
        sim = backend.last_sim
        assert sim.max_decode_batch == 8
        assert sim.batch_overhead == spec.batch_overhead
        assert sim.admission_limit == 2

    def test_cluster_shim_matches_cluster_backend(self, fitted_codec):
        spec = BASE.with_(
            topology="tiered",
            num_nodes=3,
            replication=2,
            max_bytes_per_node=2e8,
            cold_bytes_per_node=8e8,
            eviction_policy="lfu",
        )
        backend = build_backend(spec, codec=fitted_codec())
        legacy = ContextLoadingEngine(
            "mistral-7b",
            node_links=3,
            replication_factor=2,
            max_bytes_per_node=2e8,
            cold_bytes_per_node=8e8,
            eviction_policy="lfu",
            config=CacheGenConfig(chunk_tokens=256),
            codec=fitted_codec(),
        )
        built = backend.engine
        assert set(built.cluster.nodes) == set(legacy.cluster.nodes)
        assert (
            built.cluster.replication_factor == legacy.cluster.replication_factor == 2
        )
        for node_id, ours in built.stores().items():
            theirs = legacy.stores()[node_id]
            assert type(ours) is type(theirs)
            assert ours.hot.max_bytes == theirs.hot.max_bytes == 2e8
            assert ours.cold.max_bytes == theirs.cold.max_bytes == 8e8
        assert built.config == legacy.config
