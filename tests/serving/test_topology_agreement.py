"""``ServingSpec(topology="single")`` is the one-node case of the sharded store.

The backend a single-topology spec builds and a hand-built
``ContextLoadingEngine(model, link)`` — one storage node serving over the
engine's own link, so text fallbacks and KV reads share one channel — are the
same deployment.  Over eight shapes (``concurrency`` at its default and at 8,
with and without an SLO, under a capacity bound, under a crash + link + GPU
fault schedule) every field of every ``ServeResponse``, every scalar
``RunReport`` field and every span must be ``==``.  Every shape plays on the
one event engine, so the ``concurrency`` field selects nothing.

Before the local-store path was deleted this file compared it with the
one-node cluster and pinned where the two disagreed about the same physical
event.  The single topology has since adopted the sharded store's accounting;
``TestSingleTopologyAccounting`` pins each of those outputs.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.cluster import WorkloadGenerator
from repro.core import CacheGenConfig
from repro.faults import FaultSchedule, GpuStraggler, LinkDegradation, NodeCrash
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving.api import Driver, ServingSpec, build_backend
from repro.serving.api.backends import Backend
from repro.serving.engine import ContextLoadingEngine
from repro.telemetry import Tracer

NUM_REQUESTS = 40
CHUNK_TOKENS = 256
#: Holds five 320-token contexts (~22 MB each over the four levels), so the
#: twelve-context Zipf stream churns the store.
BOUND_BYTES = 120e6

CRASH_S, RECOVER_S = 3.0, 7.0
FAULTS = FaultSchedule(
    [
        NodeCrash("node-0", at_s=CRASH_S, recover_at_s=RECOVER_S),
        LinkDegradation(at_s=9.0, until_s=13.0, factor=0.25),
        GpuStraggler(at_s=14.0, until_s=17.0, slowdown=3.0),
    ]
)

#: name -> (spec fields, fault schedule)
SHAPES = {
    "default": ({}, None),
    "default-slo": ({"slo_s": 0.6}, None),
    "concurrent": ({"concurrency": 8}, None),
    "concurrent-slo": ({"concurrency": 8, "slo_s": 0.6}, None),
    "default-bounded": ({"max_bytes_per_node": BOUND_BYTES}, None),
    "concurrent-bounded": ({"concurrency": 8, "max_bytes_per_node": BOUND_BYTES}, None),
    "default-faults": ({}, FAULTS),
    "concurrent-faults": ({"concurrency": 8}, FAULTS),
}

#: Report fields that are not plain values: compared through the responses,
#: the node summaries and the spans.
NON_SCALAR_REPORT_FIELDS = {
    "responses",
    "node_summaries",
    "spec",
    "telemetry",
    "timeseries",
    "alerts",
    "simcheck",
    "resilience",
}


def _workload() -> WorkloadGenerator:
    return WorkloadGenerator(
        num_contexts=12,
        zipf_alpha=1.0,
        arrival_rate_per_s=2.0,
        token_choices=(320, 640),
        seed=11,
    )


def _run(backend: Backend, faults):
    tracer = Tracer()
    driver = Driver(backend, _workload(), faults=faults, tracer=tracer, simcheck=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fault closes a simulation segment
        return driver.run(NUM_REQUESTS), tracer


@pytest.fixture(scope="module", params=list(SHAPES))
def pair(request, fitted_codec):
    fields, faults = SHAPES[request.param]
    spec = ServingSpec(model="mistral-7b", chunk_tokens=CHUNK_TOKENS, **fields)
    one_node = ContextLoadingEngine(
        "mistral-7b",
        NetworkLink(ConstantTrace(gbps(3.0))),
        CacheGenConfig(chunk_tokens=CHUNK_TOKENS),
        max_bytes_per_node=spec.max_bytes_per_node,
        codec=fitted_codec(),
    )
    return (
        request.param,
        _run(build_backend(spec, codec=fitted_codec()), faults),
        _run(Backend(spec, one_node), faults),
    )


def test_every_response_is_equal(pair):
    _shape, (single, _), (one_node, _) = pair
    assert len(single.responses) == NUM_REQUESTS
    assert single.responses == one_node.responses


def test_every_scalar_report_field_is_equal(pair):
    _shape, (single, _), (one_node, _) = pair
    for field in dataclasses.fields(single):
        if field.name not in NON_SCALAR_REPORT_FIELDS:
            assert getattr(single, field.name) == getattr(one_node, field.name), field.name
    assert single.node_summaries == one_node.node_summaries
    assert single.format_table() == one_node.format_table()


def test_every_span_is_equal(pair):
    _shape, (_, single_tracer), (_, one_node_tracer) = pair

    def spans(tracer):
        return [(s.track, s.name, s.start_s, s.dur_s) for s in tracer.spans]

    assert spans(single_tracer) == spans(one_node_tracer)


class TestSingleTopologyAccounting:
    """What the single topology reports now that its store is the one-node cluster."""

    def test_responses_name_the_node(self, pair):
        _shape, (single, _), _ = pair
        for response in single.responses:
            if response.used_kv_cache:
                assert response.served_by == "node-0"
                assert response.attempted_node_ids == ()
            else:
                assert response.served_by is None
        assert [node.node_id for node in single.node_summaries] == ["node-0"]
        assert "  node-0 " in single.format_table()

    def test_the_stored_copy_counts_as_replicated_bytes(self, pair):
        _shape, (single, _), _ = pair
        assert single.replication_bytes > 0.0
        assert single.bytes_moved == single.replication_bytes + single.query_bytes

    def test_text_fallback_of_an_evicted_context_is_degraded(self, pair):
        shape, (single, _), _ = pair
        evicted = [r for r in single.responses if r.degrade_cause == "evicted"]
        assert bool(evicted) == shape.endswith("bounded")
        for response in evicted:
            assert response.degraded and not response.used_kv_cache
            assert response.attempted_node_ids == ("node-0",)
        assert single.fallback_causes.get("evicted", 0) == len(evicted)

    def test_a_down_node_refuses_ingests_and_degrades_reads_to_text(self, pair):
        shape, (single, _), _ = pair
        if not shape.endswith("faults"):
            assert single.failed_ingests == 0 and "node_down" not in single.fallback_causes
            return
        # First touches inside the crash window cannot be written anywhere ...
        assert single.failed_ingests > 0
        down = [r for r in single.responses if CRASH_S <= r.arrival_s < RECOVER_S]
        assert down and not any(r.used_kv_cache for r in down)
        # ... and reads of what the node holds degrade to text, naming it.
        degraded = [r for r in down if r.degraded]
        assert degraded and len(degraded) < len(down)
        for response in degraded:
            assert response.degrade_cause == "node_down"
            assert response.attempted_node_ids == ("node-0",)

    def test_trace_tracks_name_the_node(self, pair):
        shape, (_, tracer), _ = pair
        tracks = set(tracer.tracks)
        assert not {"link:serving", "storage:local"} & tracks
        assert "link:node-0" in tracks  # every shape's KV reads play on the event engine
        if shape.endswith("bounded"):
            assert "storage:node-0" in tracks  # eviction instants
        if shape.endswith("faults"):
            assert "cluster" in tracks  # full-miss instants of the lookup
