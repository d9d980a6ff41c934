"""``ServingSpec(topology="single")`` is the one-node case of the sharded store.

The single topology's one storage node, ``node-0``, serves over the engine's
own link, so text fallbacks and KV reads share one channel.  Once its store
became the one-node cluster, the single topology adopted the sharded store's
accounting; ``TestSingleTopologyAccounting`` pins each of those outputs on
four shapes: at the defaults, with an SLO, under a capacity bound, and under
a crash + link + GPU fault schedule.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cluster import WorkloadGenerator
from repro.faults import FaultSchedule, LinkDegradation, NodeCrash
from repro.serving.api import Driver, ServingSpec, build_backend
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
    ]
)

#: name -> (spec fields, fault schedule)
SHAPES = {
    "default": ({}, None),
    "slo": ({"slo_s": 0.6}, None),
    "bounded": ({"max_bytes_per_node": BOUND_BYTES}, None),
    "faults": ({}, FAULTS),
}


def _workload() -> WorkloadGenerator:
    return WorkloadGenerator(
        num_contexts=12,
        zipf_alpha=1.0,
        arrival_rate_per_s=2.0,
        token_choices=(320, 640),
        seed=11,
    )


@pytest.fixture(scope="module", params=list(SHAPES))
def shape_run(request, fitted_codec):
    """``(shape, report, tracer)`` of one driver run of the shape."""
    fields, faults = SHAPES[request.param]
    spec = ServingSpec(model="mistral-7b", chunk_tokens=CHUNK_TOKENS, **fields)
    tracer = Tracer()
    driver = Driver(
        build_backend(spec, codec=fitted_codec()),
        _workload(),
        faults=faults,
        tracer=tracer,
        simcheck=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fault closes a simulation segment
        return request.param, driver.run(NUM_REQUESTS), tracer


class TestSingleTopologyAccounting:
    """What the single topology reports now that its store is the one-node cluster."""

    def test_responses_name_the_node(self, shape_run):
        _shape, single, _ = shape_run
        for response in single.responses:
            if response.used_kv_cache:
                assert response.served_by == "node-0"
                assert response.attempted_node_ids == ()
            else:
                assert response.served_by is None
        assert [node.node_id for node in single.node_summaries] == ["node-0"]
        assert "  node-0 " in single.format_table()

    def test_the_stored_copy_counts_as_replicated_bytes(self, shape_run):
        _shape, single, _ = shape_run
        assert single.replication_bytes > 0.0
        assert single.bytes_moved == single.replication_bytes + single.query_bytes

    def test_text_fallback_of_an_evicted_context_is_degraded(self, shape_run):
        shape, single, _ = shape_run
        evicted = [r for r in single.responses if r.degrade_cause == "evicted"]
        assert bool(evicted) == shape.endswith("bounded")
        for response in evicted:
            assert response.degraded and not response.used_kv_cache
            assert response.attempted_node_ids == ("node-0",)
        assert single.fallback_causes.get("evicted", 0) == len(evicted)

    def test_a_down_node_refuses_ingests_and_degrades_reads_to_text(self, shape_run):
        shape, single, _ = shape_run
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

    def test_trace_tracks_name_the_node(self, shape_run):
        shape, _, tracer = shape_run
        tracks = set(tracer.tracks)
        assert not {"link:serving", "storage:local"} & tracks
        assert "link:node-0" in tracks  # every shape's KV reads play on the event engine
        if shape.endswith("bounded"):
            assert "storage:node-0" in tracks  # eviction instants
        if shape.endswith("faults"):
            assert "cluster" in tracks  # full-miss instants of the lookup
