"""The backend is what its ``ServingSpec`` declares, and a spec that constructs serves.

``Backend(spec, codec)`` is the one way to build a deployment, so every field
that shapes the backend is read off the spec.  Each deployment
below pins that mapping: the nodes and their replication, the speed of every
link, each store's capacity, tiers and policies, the codec, and a short run
whose report names the nodes that actually served it.
"""

from __future__ import annotations

import math

import pytest

from repro.faults import ResiliencePolicy
from repro.network import NetworkLink
from repro.network.bandwidth import ConstantTrace, gbps
from repro.serving.api import RunReport, ServeRequest, ServingSpec, build_backend
from repro.storage.eviction import make_policy
from repro.storage.tiered import make_placement

CHUNK_TOKENS = 256
CONTEXT_TOKENS = 320

#: A single-node deployment whose serving link is swapped after the build
#: (``Backend.replace_link``, as Figure 13 swaps its traces).
SINGLE_CUSTOM_LINK = ServingSpec(chunk_tokens=CHUNK_TOKENS)
CUSTOM_LINK = NetworkLink(ConstantTrace(gbps(0.8)))

#: name -> spec; one of each topology, plus the fields that reshape it.
DEPLOYMENTS = {
    "single": ServingSpec(chunk_tokens=CHUNK_TOKENS),
    "single-bounded": ServingSpec(
        chunk_tokens=CHUNK_TOKENS,
        max_bytes_per_node=1e8,
        eviction_policy="lru",
        bandwidth_gbps=1.5,
    ),
    "single-custom-link": SINGLE_CUSTOM_LINK,
    "cluster": ServingSpec(
        topology="cluster", num_nodes=3, replication=2, chunk_tokens=CHUNK_TOKENS
    ),
    "heterogeneous": ServingSpec(
        topology="cluster",
        num_nodes=3,
        node_bandwidths_gbps=(1.0, 3.0, 10.0),
        chunk_tokens=CHUNK_TOKENS,
    ),
    "tiered": ServingSpec(
        topology="tiered",
        num_nodes=2,
        replication=2,
        max_bytes_per_node=1e8,
        cold_bytes_per_node=1e9,
        tier_bandwidth_gbps=0.5,
        placement="cost",
        eviction_policy="cost",
        chunk_tokens=CHUNK_TOKENS,
    ),
    "fleet": ServingSpec(
        topology="cluster",
        num_nodes=2,
        chunk_tokens=CHUNK_TOKENS,
        gpu_workers=2,
        dispatch_policy="locality",
        admission_limit=4,
    ),
    "resilient": ServingSpec(
        topology="cluster",
        num_nodes=3,
        replication=2,
        resilience=ResiliencePolicy(),
        chunk_tokens=CHUNK_TOKENS,
    ),
}


def _speed_bps(link: NetworkLink) -> float:
    return link.trace.bandwidth_at(0.0)


@pytest.fixture(scope="module", params=list(DEPLOYMENTS))
def deployment(request, fitted_codec):
    """``(spec, backend)`` of one freshly built deployment."""
    spec = DEPLOYMENTS[request.param]
    backend = build_backend(spec, codec=fitted_codec())
    if spec is SINGLE_CUSTOM_LINK:
        backend.replace_link(CUSTOM_LINK)
    return spec, backend


@pytest.fixture(scope="module")
def served(deployment):
    """``(spec, backend, responses, report)`` of one short run: two reads of
    an ingested context and one text fallback of a context never ingested."""
    spec, backend = deployment
    backend.ingest("spec-doc", CONTEXT_TOKENS)
    requests = [
        ServeRequest("spec-doc", "First?", arrival_s=0.0, num_tokens=CONTEXT_TOKENS),
        ServeRequest("spec-doc", "Second?", arrival_s=0.05, num_tokens=CONTEXT_TOKENS),
        ServeRequest("never-ingested", "Third?", arrival_s=0.1, num_tokens=CONTEXT_TOKENS),
    ]
    responses = backend.run(requests)
    report = RunReport.from_responses(
        responses, spec=spec, node_summaries=backend.cluster.node_summaries()
    )
    return spec, backend, responses, report


class TestTheBackendIsItsSpec:
    def test_the_nodes_are_the_declared_nodes(self, deployment):
        spec, backend = deployment
        cluster = backend.cluster
        assert list(cluster.nodes) == [f"node-{i}" for i in range(spec.num_nodes)]
        assert cluster.replication_factor == spec.replication

    def test_every_link_runs_at_the_declared_speed(self, deployment):
        spec, backend = deployment
        nodes = list(backend.cluster.nodes.values())
        if spec.topology == "single":
            # Text fallbacks and KV reads share the one serving link.
            (node,) = nodes
            assert node.link is backend.link
            if spec is SINGLE_CUSTOM_LINK:
                assert backend.link is CUSTOM_LINK
            else:
                assert _speed_bps(backend.link) == gbps(spec.bandwidth_gbps)
        else:
            speeds = spec.node_bandwidths_gbps or (spec.bandwidth_gbps,) * spec.num_nodes
            assert [_speed_bps(node.link) for node in nodes] == [gbps(s) for s in speeds]
            assert all(node.link is not backend.link for node in nodes)

    def test_every_store_holds_the_declared_tiers_and_policies(self, deployment):
        spec, backend = deployment
        policy = type(make_policy(spec.eviction_policy))
        for store in backend.stores().values():
            tiered = spec.cold_bytes_per_node is not None
            assert (store.cold is not None) == tiered
            assert store.hot.max_bytes == spec.max_bytes_per_node
            assert type(store.hot.eviction_policy) is policy
            if tiered:
                assert store.cold.max_bytes == spec.cold_bytes_per_node
                assert type(store.cold.eviction_policy) is policy
                assert _speed_bps(store.tier_link) == gbps(spec.tier_bandwidth_gbps)
                assert type(store.placement) is type(make_placement(spec.placement))

    def test_the_codec_is_the_declared_codec(self, deployment):
        spec, backend = deployment
        assert backend.model == spec.resolved_model()
        assert backend.config == spec.resolved_config()
        assert backend.encoder.config == backend.config


class TestASpecThatConstructsServes:
    def test_every_request_is_served(self, served):
        spec, backend, responses, report = served
        assert report.num_requests == len(responses) == 3
        assert report.hard_failures == 0
        for response in responses:
            assert math.isfinite(response.ttft_s) and response.ttft_s > 0
            assert response.finish_s >= response.arrival_s
            assert not response.degraded
        first, second, fallback = responses
        assert first.used_kv_cache and second.used_kv_cache
        assert not fallback.used_kv_cache and fallback.served_by is None

    def test_the_report_names_the_declared_nodes(self, served):
        spec, backend, responses, report = served
        assert report.spec is spec
        node_ids = [node.node_id for node in report.node_summaries]
        assert node_ids == list(backend.cluster.nodes)
        assert len(node_ids) == spec.num_nodes
        served_by = {r.served_by for r in responses if r.used_kv_cache}
        assert served_by and served_by <= set(node_ids)
