"""Fleet-dispatch determinism regression: a replayed run is byte-identical.

The fleet layer routes GPU work through dispatch policies whose state
(session bindings, locality pins, autoscaler history) could easily leak
iteration-order or wall-clock nondeterminism into the simulation.  This
pins the strongest observable guarantee: serving the same spec and the same
request stream twice produces byte-for-byte identical Chrome-trace exports —
every span, timestamp, and counter sample, not just the headline metrics.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import AutoscaleSpec
from repro.serving.api import ServeRequest, ServingSpec, serve
from repro.telemetry import Tracer, to_chrome_trace


def fleet_requests() -> list[ServeRequest]:
    """Two chat sessions and a drive-by, contending for two contexts."""
    requests = []
    for i in range(8):
        requests.append(
            ServeRequest(
                f"fleet-doc-{i % 2}",
                f"Q{i}?",
                arrival_s=0.02 * i,
                num_tokens=640,
                session_id=f"chat-{i % 3}" if i % 3 else None,
            )
        )
    return requests


def run_traced(spec: ServingSpec, fitted_codec) -> dict:
    tracer = Tracer()
    report = serve(spec, fleet_requests(), tracer=tracer, codec=fitted_codec())
    assert report.hard_failures == 0
    return to_chrome_trace(tracer)


@pytest.mark.parametrize(
    "spec",
    [
        ServingSpec(
            model="mistral-7b",
            chunk_tokens=256,
            concurrency=4,
            gpu_workers=2,
            dispatch_policy="sticky",
        ),
        ServingSpec(
            model="mistral-7b",
            chunk_tokens=256,
            concurrency=4,
            gpu_workers=2,
            dispatch_policy="locality",
        ),
        ServingSpec(
            model="mistral-7b",
            chunk_tokens=256,
            concurrency=6,
            gpu_workers=2,
            dispatch_policy="least-loaded",
            autoscale=AutoscaleSpec(min_workers=1, max_workers=4),
        ),
    ],
    ids=["sticky", "locality", "autoscaled"],
)
def test_replayed_fleet_run_exports_byte_identical_trace(spec, fitted_codec):
    first = json.dumps(run_traced(spec, fitted_codec), sort_keys=True)
    second = json.dumps(run_traced(spec, fitted_codec), sort_keys=True)
    assert first == second


def test_distinct_seeds_still_converge_when_spec_is_deterministic(fitted_codec):
    """The fleet path has no RNG of its own: runs differ only through the
    request stream, so replaying a *permuted but equivalent* stream yields
    the same aggregate digest even though trace layout may differ."""
    from repro.simcheck.race import run_report_digest

    spec = ServingSpec(
        model="mistral-7b",
        chunk_tokens=256,
        concurrency=4,
        gpu_workers=2,
        dispatch_policy="sticky",
    )
    baseline = run_report_digest(serve(spec, fleet_requests(), codec=fitted_codec()))
    replay = run_report_digest(serve(spec, fleet_requests(), codec=fitted_codec()))
    assert baseline == replay
