"""Tracing a concurrent serving run and exporting a Perfetto timeline.

Run with ``PYTHONPATH=src python examples/tracing_timeline.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run).

The example records full telemetry for a contended serving run:

1. serve a burst of near-simultaneous queries with a :class:`repro.Tracer`
   attached — every request gets a span tree (admission wait, link wait,
   transfer, GPU-queue wait, batched decode, prefill compute) and every
   shared resource a swimlane of its own,
2. show that the trace *explains* the tail: the slowest request's TTFT
   breakdown is reproduced exactly by summing its child spans per category,
   so the queueing share of a bad TTFT can be read straight off the
   timeline,
3. export the run as Chrome trace-event JSON (open it at ui.perfetto.dev)
   and as a JSONL event log, plus the metrics-registry snapshot.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro import ServeRequest, ServingSpec, Tracer, serve, write_chrome_trace, write_jsonl

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
NUM_TOKENS = 800 if SMOKE else 4_000
NUM_REQUESTS = 4 if SMOKE else 8


def main() -> None:
    spec = ServingSpec(model="mistral-7b", max_decode_batch=4)
    requests = [
        ServeRequest(
            "annual-report", f"Question {i}?", arrival_s=0.02 * i, num_tokens=NUM_TOKENS
        )
        for i in range(NUM_REQUESTS)
    ]

    tracer = Tracer()
    report = serve(spec, requests, tracer=tracer)
    assert report.telemetry is tracer

    print(f"{NUM_REQUESTS} queries arriving within {0.02 * NUM_REQUESTS:.2f}s of each other:\n")
    slowest = max(report.responses, key=lambda r: r.ttft_s)
    root = next(
        span
        for span in tracer.root_spans()
        # Exact == is safe here: the span start is copied from the arrival.
        if span.category == "request"
        and span.start_s == slowest.arrival_s  # simcheck: ignore[SIM004]
    )
    print(f"slowest request: {slowest.context_id!r} ttft={slowest.ttft_s:.3f}s")
    print(f"its span tree (track {root.track}):")
    for span in root.walk():
        indent = "  " if span is root else "    "
        print(
            f"{indent}{span.name:<24} start={span.start_s:6.3f}s "
            f"dur={span.dur_s:6.3f}s [{span.category}]"
        )

    # The trace is exact: per-category child-span sums reproduce the
    # response's TTFT decomposition to the last digit.
    sums: dict[str, float] = {}
    for child in root.children:
        sums[child.category] = sums.get(child.category, 0.0) + child.dur_s
    ttft = slowest.ttft
    print("\nspan sums vs TTFT breakdown:")
    for category, reported in [
        ("queueing", ttft.queueing_s),
        ("transfer", ttft.network_s),
        ("decode", ttft.decode_s),
        ("compute", ttft.compute_s),
    ]:
        print(f"  {category:<9} spans={sums.get(category, 0.0):.6f}s breakdown={reported:.6f}s")

    gpu_busy = tracer.metrics.counter("gpu_busy_s").value(gpu="gpu")
    depth = tracer.metrics.gauge("gpu_queue_depth").max(gpu="gpu")
    print(f"\ngpu busy time: {gpu_busy:.3f}s, peak gpu queue depth: {depth:.0f}")

    out_dir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    trace_path = write_chrome_trace(tracer, out_dir / "timeline.json")
    events_path = write_jsonl(tracer, out_dir / "events.jsonl")
    print(f"\nwrote Chrome trace to {trace_path} (open at ui.perfetto.dev)")
    print(f"wrote event log to {events_path}")


if __name__ == "__main__":
    main()
