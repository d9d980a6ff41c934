"""Pinned output bytes of one traced, faulted cluster run.

The run is the ``REPRO_SMOKE=1`` shape of ``examples/chaos_serving.py``: a
3-node cluster with 2x replication and a full resilience policy, 40 Zipf
requests through a node crash, a flapping link and a corrupted context.  The
sha256s below are of its Chrome trace, its JSONL event log and its metrics
snapshot.  Any change to how a trace is recorded, stored or exported must
keep all three; a change that moves one on purpose updates it here.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro import (
    Corruption,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    ResiliencePolicy,
    ServingSpec,
    Tracer,
    WorkloadGenerator,
    serve,
    write_chrome_trace,
    write_jsonl,
)

NUM_REQUESTS = 40
SPAN_S = NUM_REQUESTS / 2.0

CHROME_TRACE_SHA256 = "8ee44849d3608b96904d0f62ac284329b7f985ea260ca7e43be46231be35b0c2"
JSONL_SHA256 = "5459d5ba633bf0e826f1e3941eb67260a9c4893dfdf15a908099ef730f8401bd"
METRICS_SHA256 = "726afb44be87b8cec06e5c192efe96c43b8a0b3ccfb427b10223d9c78dce35dd"


def traced_chaos_run() -> Tracer:
    """The example's smoke run, traced; returns its tracer."""
    spec = ServingSpec(
        model="mistral-7b",
        topology="cluster",
        num_nodes=3,
        replication=2,
        chunk_tokens=256,
        slo_s=1.0,
        adaptive=False,
        resilience=ResiliencePolicy(),
    )
    faults = FaultSchedule(
        [
            NodeCrash("node-0", at_s=0.2 * SPAN_S, recover_at_s=0.7 * SPAN_S),
            LinkDegradation(
                at_s=0.3 * SPAN_S, until_s=0.5 * SPAN_S, factor=0.25, node_id="node-1", flaps=2
            ),
            Corruption("ctx-0000", at_s=0.4 * SPAN_S),
        ]
    )
    workload = WorkloadGenerator(
        num_contexts=8, zipf_alpha=1.0, arrival_rate_per_s=2.0, seed=11
    )
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        serve(spec, workload=workload, num_requests=NUM_REQUESTS, faults=faults, tracer=tracer)
    return tracer


@pytest.fixture(scope="module")
def chaos_tracer() -> Tracer:
    return traced_chaos_run()


def _file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_chrome_trace_bytes_are_pinned(chaos_tracer, tmp_path):
    path = write_chrome_trace(chaos_tracer, tmp_path / "trace.json")
    assert _file_sha256(path) == CHROME_TRACE_SHA256


def test_jsonl_bytes_are_pinned(chaos_tracer, tmp_path):
    path = write_jsonl(chaos_tracer, tmp_path / "events.jsonl")
    assert _file_sha256(path) == JSONL_SHA256


def test_metrics_snapshot_is_pinned(chaos_tracer):
    text = json.dumps(chaos_tracer.metrics.snapshot(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == METRICS_SHA256
