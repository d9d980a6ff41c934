"""Concurrent serving smoke benchmark: TTFT and queueing vs concurrency.

A deliberately small, deterministic sweep of the event-driven concurrent
engine so it doubles as a CI smoke test for the subsystem: simultaneous
requests to one engine must see monotonically non-decreasing TTFT, the
degradation must be attributable to queueing (the engine has no static GPU
share to hide behind), and the TTFT decomposition must stay exact.
"""

from __future__ import annotations

from repro.core import CacheGenConfig
from repro.serving import ServeRequest
from repro.serving.api import Backend, ServingSpec
from repro.serving.engine import ContextLoadingEngine

CONCURRENCY_LEVELS = (1, 2, 4, 8)
NUM_TOKENS = 3_000


def _run_scaling() -> dict[int, list]:
    engine = ContextLoadingEngine(
        "mistral-7b", config=CacheGenConfig(chunk_tokens=512)
    )
    concurrent = Backend(ServingSpec(max_decode_batch=16), engine=engine)
    engine.ingest("ctx", NUM_TOKENS)
    responses = {}
    for n in CONCURRENCY_LEVELS:
        for _ in range(n):
            concurrent.submit(ServeRequest("ctx", "How did revenue develop?"))
        responses[n] = concurrent.run()
    return responses


def test_concurrent_scaling(benchmark):
    responses = benchmark.pedantic(_run_scaling, iterations=1, rounds=1)

    print()
    print(f"{'n':>3} {'mean_ttft':>10} {'mean_queue':>10} {'max_ttft':>10}")
    means = {}
    for n, batch in sorted(responses.items()):
        mean_ttft = sum(r.ttft_s for r in batch) / n
        mean_queue = sum(r.queueing_s for r in batch) / n
        means[n] = (mean_ttft, mean_queue)
        print(
            f"{n:>3} {mean_ttft:>9.3f}s {mean_queue:>9.3f}s "
            f"{max(r.ttft_s for r in batch):>9.3f}s"
        )

    for batch in responses.values():
        for response in batch:
            assert response.used_kv_cache
            ttft = response.ttft
            parts = (
                response.queueing_s + ttft.network_s + ttft.decode_s + ttft.compute_s
            )
            assert abs(response.ttft_s - parts) < 1e-9

    ttfts = [means[n][0] for n in CONCURRENCY_LEVELS]
    assert all(b >= a - 1e-9 for a, b in zip(ttfts, ttfts[1:]))
    # A lone request queues behind nothing; a full burst queues measurably.
    assert means[CONCURRENCY_LEVELS[0]][1] < 1e-9
    assert means[CONCURRENCY_LEVELS[-1]][1] > 1e-3
