"""Memory guard: what a trace holds per traced request.

A fixed faulted run of 200 requests through a 4-node cluster and a 2-GPU
fleet is traced under ``tracemalloc``; the bytes the tracer keeps alive are
the drop in traced memory when the tracer is released.  Stored as objects
(one ``Span`` and one ``CounterSample`` dataclass per record) this run held
≈10.6 KiB per request; stored as columns it holds ≈2.3 KiB.
"""

from __future__ import annotations

import gc
import tracemalloc
import warnings
import weakref

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
)
from repro.serving.api import build_backend

NUM_REQUESTS = 200
ARRIVAL_RATE = 20.0
#: Half the ≈8.5 KiB a traced request held as objects on the benchmark's
#: chaos workload, rounded down.
MAX_BYTES_PER_REQUEST = 4096


def test_trace_bytes_per_traced_request_stay_bounded():
    span_s = NUM_REQUESTS / ARRIVAL_RATE
    spec = ServingSpec(
        model="mistral-7b",
        topology="cluster",
        num_nodes=4,
        replication=2,
        concurrency=8,
        gpu_workers=2,
        dispatch_policy="locality",
        chunk_tokens=256,
        slo_s=1.5,
        resilience=ResiliencePolicy(),
    )
    faults = FaultSchedule(
        [
            NodeCrash("node-0", at_s=0.2 * span_s, recover_at_s=0.7 * span_s),
            LinkDegradation(
                at_s=0.3 * span_s, until_s=0.5 * span_s, factor=0.25, node_id="node-1", flaps=2
            ),
            Corruption("ctx-0000", at_s=0.4 * span_s),
        ]
    )
    workload = WorkloadGenerator(
        num_contexts=8, arrival_rate_per_s=ARRIVAL_RATE, token_choices=(320, 640), seed=3
    )
    build_backend(spec)  # the codec profile loads before the measurement
    tracer = Tracer()
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = serve(
                spec, workload=workload, num_requests=NUM_REQUESTS, faults=faults, tracer=tracer
            )
        report.telemetry = None
        traced_requests = sum(1 for root in tracer.root_spans() if root.category == "request")
        released = weakref.ref(tracer)
        gc.collect()
        with_trace, _ = tracemalloc.get_traced_memory()
        del tracer
        gc.collect()
        without_trace, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert released() is None, "something outside the tracer still holds it"
    assert traced_requests == len(report.responses) == NUM_REQUESTS
    per_request = (with_trace - without_trace) / traced_requests
    assert 0 < per_request <= MAX_BYTES_PER_REQUEST
