"""Concurrent serving: queueing delay emerging from the event-driven engine.

Run with ``PYTHONPATH=src python examples/concurrent_serving.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run).

The example exercises the unified serving API end to end:

1. declare a single-node deployment as a :class:`repro.ServingSpec` (every
   request is played on the event engine) and ingest two long contexts,
2. serve six queries arriving close together — requests contend for the link
   and the GPU run queue, and each :class:`repro.ServeResponse` reports its
   TTFT decomposed into queueing + transfer (network) + decode + prompt
   compute,
3. sweep the number of simultaneous requests to show TTFT degrading
   monotonically with concurrency — with no ``gpu_share`` knob anywhere; the
   degradation is pure queueing,
4. hit a GPU fleet — declared entirely through the spec's ``gpu_workers`` /
   ``dispatch_policy`` fields, no engine internals — with a flash crowd of
   cold contexts (GPU-bound text re-prefill) to show added workers draining
   the queueing component.
"""

from __future__ import annotations

import os

from repro import ServeRequest, ServingSpec, build_backend

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
CONTEXTS = (
    {"annual-report": 1_500, "design-doc": 800}
    if SMOKE
    else {"annual-report": 6_000, "design-doc": 3_000}
)
ARRIVALS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]


def main() -> None:
    spec = ServingSpec(model="mistral-7b", max_decode_batch=8)
    backend = build_backend(spec)
    for context_id, num_tokens in CONTEXTS.items():
        backend.ingest(context_id, num_tokens)

    print("Six queries arriving within 250 ms of each other:\n")
    context_ids = list(CONTEXTS)
    for i, arrival_s in enumerate(ARRIVALS):
        backend.submit(
            ServeRequest(
                context_ids[i % len(context_ids)], f"Question {i}?", arrival_s=arrival_s
            )
        )
    responses = backend.run()

    header = (
        f"{'context':<14} {'arrive':>7} {'ttft':>7} {'queue':>7} "
        f"{'net':>7} {'decode':>7} {'compute':>8}"
    )
    print(header)
    for response in responses:
        ttft = response.ttft
        print(
            f"{response.context_id:<14} {response.arrival_s:>6.2f}s {response.ttft_s:>6.3f}s "
            f"{response.queueing_s:>6.3f}s {ttft.network_s:>6.3f}s "
            f"{ttft.decode_s:>6.3f}s {ttft.compute_s:>7.3f}s"
        )
        assert abs(
            response.ttft_s
            - (response.queueing_s + ttft.network_s + ttft.decode_s + ttft.compute_s)
        ) < 1e-9, "the decomposition must be exact"

    print("\nMean TTFT vs simultaneous requests (same context, same instant):")
    for n in (1, 2, 4, 8):
        for _ in range(n):
            backend.submit(ServeRequest("annual-report", "How did revenue develop?"))
        burst = backend.run()
        mean_ttft = sum(r.ttft_s for r in burst) / n
        mean_queue = sum(r.queueing_s for r in burst) / n
        print(f"  n={n:<2}  mean TTFT {mean_ttft:6.3f}s   mean queueing {mean_queue:6.3f}s")

    # A flash crowd of *cold* contexts degrades to text re-prefill — pure GPU
    # compute — so the queue builds on the schedulers, not the link.  The
    # fleet is declared entirely through spec fields.
    cold_tokens = CONTEXTS["design-doc"]
    print("\nFlash crowd of 12 cold contexts (text re-prefill, GPU-bound):")
    for gpu_workers in (1, 2, 4):
        fleet = build_backend(
            ServingSpec(
                model="mistral-7b",
                max_decode_batch=8,
                gpu_workers=gpu_workers,
                dispatch_policy="locality",
            )
        )
        for i in range(12):
            fleet.submit(
                ServeRequest(
                    f"cold-context-{i}",
                    f"Burst question {i}?",
                    arrival_s=0.02 * i,
                    num_tokens=cold_tokens,
                )
            )
        burst = fleet.run()
        mean_ttft = sum(r.ttft_s for r in burst) / len(burst)
        mean_queue = sum(r.queueing_s for r in burst) / len(burst)
        print(
            f"  gpu_workers={gpu_workers}  mean TTFT {mean_ttft:6.3f}s   "
            f"mean queueing {mean_queue:6.3f}s"
        )


if __name__ == "__main__":
    main()
