"""Chaos serving: a replicated cluster self-healing through injected faults.

Run with ``PYTHONPATH=src python examples/chaos_serving.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run; pass an output path as the
first argument to also write the Chrome trace there and the JSONL event log
beside it, ``.jsonl`` in place of its suffix, for byte-compare checks).

The example drives the unified serving API through a scripted outage:

1. declare a 3-node cluster with 2x replication and a full
   :class:`repro.ResiliencePolicy` (retries with backoff, hedged reads,
   per-node circuit breakers, background re-replication),
2. script a :class:`repro.FaultSchedule` on the simulated clock — a node
   crash that later recovers, a flapping link degradation, and a corrupted
   stored context,
3. replay a Zipf workload open-loop with ``serve(..., faults=...)`` — reads
   fail over, retry, repair and degrade but every request is served,
4. print the run report plus its :class:`repro.ResilienceReport`:
   availability, goodput vs degraded, MTTR per fault, retry/hedge/breaker
   counts.

The same spec + schedule + seed replays to an identical report and trace —
chaos runs are exactly as deterministic as healthy ones.
"""

from __future__ import annotations

import os
import sys
import warnings

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

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
NUM_REQUESTS = 40 if SMOKE else 160
ARRIVAL_RATE = 2.0
SPAN_S = NUM_REQUESTS / ARRIVAL_RATE


def main() -> None:
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
    # The outage script, on the simulated clock: a crash window covering the
    # middle of the run, a flapping degraded link, and one corrupted replica.
    faults = FaultSchedule(
        [
            NodeCrash("node-0", at_s=0.2 * SPAN_S, recover_at_s=0.7 * SPAN_S),
            LinkDegradation(
                at_s=0.3 * SPAN_S,
                until_s=0.5 * SPAN_S,
                factor=0.25,
                node_id="node-1",
                flaps=2,
            ),
            Corruption("ctx-0000", at_s=0.4 * SPAN_S),
        ]
    )
    workload = WorkloadGenerator(
        num_contexts=8,
        zipf_alpha=1.0,
        arrival_rate_per_s=ARRIVAL_RATE,
        seed=11,
    )

    print(
        f"Serving {NUM_REQUESTS} requests on 3 nodes (replication=2) through "
        f"a crash, a flapping link and a corrupted context\n"
    )
    tracer = Tracer()
    with warnings.catch_warnings():
        # The driver warns once that fault boundaries flush queued backlog;
        # here the faults are the point of the run.
        warnings.simplefilter("ignore")
        report = serve(
            spec,
            workload=workload,
            num_requests=NUM_REQUESTS,
            faults=faults,
            tracer=tracer,
        )
    print(report.format_table())
    assert report.resilience is not None
    print()
    print(report.resilience.format_table())

    # Self-healing's contract: faults degrade service, they never drop it.
    assert report.hard_failures == 0, "every request must be served"
    assert report.resilience.availability == 1.0

    if len(sys.argv) > 1:
        trace_path = write_chrome_trace(tracer, sys.argv[1])
        events_path = write_jsonl(tracer, trace_path.with_suffix(".jsonl"))
        print(f"\nwrote Chrome trace to {trace_path} and event log to {events_path}")


if __name__ == "__main__":
    main()
