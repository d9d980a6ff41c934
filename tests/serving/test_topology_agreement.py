"""The single topology and the one-node cluster, run over the same arrivals.

A ``ContextLoadingEngine`` over its private store and a
``ClusterFrontend(node_links=[link], replication_factor=1, text_link=link)``
describe the same deployment: one store behind one link that text fallbacks
and KV reads share.  Every timing, byte, configuration, quality and
degradation field of every response must therefore be ``==``; where the two
disagree they disagree about *accounting* of the same physical event, and
those disagreements are pinned below so that whoever collapses the two paths
knows which single-topology outputs move (and that nothing else does):

* the cluster counts the stored copy as replicated bytes, the local store
  reports zero;
* a text fallback of an ingested-then-evicted context is ``degraded`` with
  cause ``"evicted"`` on the cluster and a plain text answer on the local
  store (which forgot the length and needs the request to carry it);
* a first-touch ingest that arrives while the node is down fails on the
  cluster (``failed_ingests``; the context then serves from text, not
  degraded, until a later arrival ingests it) and is written into the dark
  local store (whose text answers then read ``degraded`` / ``"node_down"``);
* ``served_by`` / ``attempted_node_ids`` / ``node_summaries`` / trace-track
  names carry the node id on the cluster and nothing on the local store.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.cluster import ClusterFrontend, WorkloadGenerator
from repro.core import CacheGenConfig
from repro.faults import FaultSchedule, GpuStraggler, LinkDegradation, NodeCrash
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving.api import Driver, ServingSpec
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
    "sequential": ({}, None),
    "sequential-slo": ({"slo_s": 0.6}, None),
    "concurrent": ({"concurrency": 8}, None),
    "concurrent-slo": ({"concurrency": 8, "slo_s": 0.6}, None),
    "sequential-bounded": ({"max_bytes_per_node": BOUND_BYTES}, None),
    "concurrent-bounded": ({"concurrency": 8, "max_bytes_per_node": BOUND_BYTES}, None),
    "sequential-faults": ({}, FAULTS),
    "concurrent-faults": ({"concurrency": 8}, FAULTS),
}

#: Response fields the two paths must agree on exactly.
AGREED_RESPONSE_FIELDS = (
    "context_id",
    "question",
    "text",
    "quality",
    "ttft",
    "used_kv_cache",
    "chunk_configs",
    "transmitted_bytes",
    "failed_over",
    "arrival_s",
    "finish_s",
    "served_tier",
    "tier_transfer_s",
    "retries",
    "hedged",
)
#: Report fields that are not plain values (compared through the responses).
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
#: The accounting the two paths disagree on at this commit.
DISAGREED_REPORT_FIELDS = {"replication_bytes", "degraded", "fallback_causes"}
#: What one more (or one fewer) stored context moves in the report.
STORED_CONTEXT_FIELDS = {
    "ingests",
    "failed_ingests",
    "hot_bytes",
    "storage_cost_usd_per_month",
    "cost_usd_per_request",
}


def _workload() -> WorkloadGenerator:
    return WorkloadGenerator(
        num_contexts=12,
        zipf_alpha=1.0,
        arrival_rate_per_s=2.0,
        token_choices=(320, 640),
        seed=11,
    )


def _run(engine, spec: ServingSpec, faults):
    tracer = Tracer()
    driver = Driver(Backend(spec, engine), _workload(), faults=faults, tracer=tracer, simcheck=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fault closes a simulation segment
        return driver.run(NUM_REQUESTS), tracer


@pytest.fixture(scope="module", params=list(SHAPES))
def pair(request, fitted_codec):
    fields, faults = SHAPES[request.param]
    spec = ServingSpec(model="mistral-7b", chunk_tokens=CHUNK_TOKENS, **fields)
    config = CacheGenConfig(chunk_tokens=CHUNK_TOKENS)
    local = ContextLoadingEngine(
        "mistral-7b",
        link=NetworkLink(ConstantTrace(gbps(3.0))),
        config=config,
        store_max_bytes=spec.max_bytes_per_node,
        codec=fitted_codec(),
    )
    shared_link = NetworkLink(ConstantTrace(gbps(3.0)))
    one_node = ClusterFrontend(
        "mistral-7b",
        node_links=[shared_link],
        replication_factor=1,
        max_bytes_per_node=spec.max_bytes_per_node,
        config=config,
        text_link=shared_link,
        codec=fitted_codec(),
    )
    return request.param, _run(local, spec, faults), _run(one_node, spec, faults)


def test_every_response_agrees(pair):
    _shape, (local, _), (one_node, _) = pair
    assert len(local.responses) == len(one_node.responses) == NUM_REQUESTS
    for ours, theirs in zip(local.responses, one_node.responses):
        for name in AGREED_RESPONSE_FIELDS:
            assert getattr(ours, name) == getattr(theirs, name), name
        assert ours.queueing_s == theirs.queueing_s


def test_degradation_agrees_except_on_evicted_and_dark_ingested_contexts(pair):
    shape, (local, _), (one_node, _) = pair
    evicted = dark = 0
    for ours, theirs in zip(local.responses, one_node.responses):
        mine = (ours.degraded, ours.degrade_cause)
        other = (theirs.degraded, theirs.degrade_cause)
        if other == (True, "evicted"):
            # Pinned: the local store answers an evicted context from text
            # without calling it degraded.
            evicted += 1
            assert mine == (False, None) and not ours.used_kv_cache
        elif mine != other:
            # Pinned: the cluster refused the ingest while its node was down,
            # so it never knew the context; the local store wrote it anyway.
            dark += 1
            assert (mine, other) == ((True, "node_down"), (False, None))
            assert CRASH_S <= ours.arrival_s < RECOVER_S
    assert (evicted > 0) == shape.endswith("bounded")
    assert (dark > 0) == shape.endswith("faults")
    if shape.endswith("faults"):
        assert one_node.fallback_causes.get("node_down", 0) > 0
        assert one_node.failed_ingests > local.failed_ingests == 0
        assert local.ingests - one_node.ingests == 1


def test_scalar_report_fields_agree(pair):
    shape, (local, _), (one_node, _) = pair
    skipped = NON_SCALAR_REPORT_FIELDS | DISAGREED_REPORT_FIELDS
    if shape.endswith("faults"):
        skipped = skipped | STORED_CONTEXT_FIELDS
    for field in dataclasses.fields(local):
        if field.name not in skipped:
            assert getattr(local, field.name) == getattr(one_node, field.name), field.name
    if shape.endswith(("slo", "sequential", "concurrent")):
        assert local.degraded == one_node.degraded == 0
        assert local.fallback_causes == one_node.fallback_causes == {}


def test_pinned_accounting_disagreements(pair):
    _shape, (local, _), (one_node, _) = pair
    # The cluster counts the one stored copy as replicated bytes ...
    assert local.replication_bytes == 0.0
    assert one_node.replication_bytes > 0.0
    # ... and names the node everywhere the local store says nothing.
    assert local.node_summaries == []
    assert [node.node_id for node in one_node.node_summaries] == ["node-0"]
    for ours, theirs in zip(local.responses, one_node.responses):
        assert ours.served_by is None and ours.attempted_node_ids == ()
        if theirs.used_kv_cache:
            assert theirs.served_by == "node-0"


def test_spans_agree_and_tracks_are_renamed(pair):
    shape, (local, local_tracer), (one_node, one_node_tracer) = pair

    def spans(tracer, ingest: bool):
        return sorted(
            (s.name, s.start_s, s.dur_s) for s in tracer.spans if (s.track == "ingest") == ingest
        )

    assert spans(local_tracer, ingest=False) == spans(one_node_tracer, ingest=False)
    # One ingest/encode span per first-touch ingest: they differ by the dark one.
    assert (
        len(spans(local_tracer, ingest=True)) - len(spans(one_node_tracer, ingest=True))
        == local.ingests - one_node.ingests
        == (1 if shape.endswith("faults") else 0)
    )
    rename = {"link:serving": "link:node-0"}
    assert {rename.get(s.track, s.track) for s in local_tracer.spans} == {
        s.track for s in one_node_tracer.spans
    }
