"""The event-driven executor: a batch of requests played through the event engine.

:func:`serve_batch` serves a *set* of
:class:`~repro.serving.api.types.ServeRequest` objects over a
:class:`~repro.serving.engine.ContextLoadingEngine` against the shared links
and the GPU run queue of one
:class:`~repro.serving.concurrent.simulator.ConcurrentLoadSimulator`.  Each
response carries a :class:`~repro.metrics.system.QueueingTTFTBreakdown`, so
TTFT under concurrency decomposes into queueing delay + transfer + compute
instead of being scaled by a static GPU share.

Where a request is served from is the engine's decision
(:meth:`~repro.serving.engine.ContextLoadingEngine.resolve`), taken in arrival
order before the simulation runs: each request streams from the replica the
smart lookup picks — the modeled per-node queue depth is maintained across
the batch, so co-arriving requests spread over replicas — and decodes of
requests served by the same node share batched GPU launches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...metrics.system import QueueingTTFTBreakdown
from ...storage.tiered import COLD
from ...telemetry.trace import Tracer, emit_timeline_spans
from ..api.types import ServeRequest, ServeResponse
from .processes import TIER_CONFIG, ChunkedKVLoad, LoadStage, StaticLoad
from .resources import DECODE, PREFILL
from .simulator import ConcurrentLoadSimulator, RequestTimeline

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine import ContextLoadingEngine, Resolution

__all__ = ["serve_batch"]


def serve_batch(
    engine: "ContextLoadingEngine",
    submissions: Sequence[ServeRequest],
    sim: ConcurrentLoadSimulator,
) -> list[ServeResponse]:
    """Serve ``submissions`` concurrently on ``sim``; responses in the given order.

    Ingest, codec, storage and quality evaluation are ``engine``'s; ``sim``
    carries the executor settings (batching, admission, fleet, tracer, clock).

    Routing is decided before the event simulation runs, in arrival
    order: each KV-served request reserves its replica (deepening that
    node's modeled queue) so later arrivals prefer other replicas.  The
    reservation is held for the whole batch — an approximation that
    treats the batch as one contention window; requests spaced far apart
    in arrival time are better served in separate calls.
    """
    tracer = sim.tracer
    if tracer is not None:
        # Name the links the simulator may touch, for readable trace tracks.
        sim.link_labels.update(engine.link_labels())
    resolutions: list[Resolution | None] = [None] * len(submissions)
    serving_nodes = []
    try:
        arrival_order = sorted(
            range(len(submissions)), key=lambda i: (submissions[i].arrival_s, i)
        )
        resilience = engine.cluster.resilience
        for i in arrival_order:
            if tracer is not None:
                # Routing-time events (lookup failovers, promotion on a
                # cold hit) land at the request's arrival on the timeline.
                tracer.advance_to(submissions[i].arrival_s)
            if resilience is not None:
                # Breaker timers and hedge stats run on arrival time.
                resilience.now = max(resilience.now, submissions[i].arrival_s)
            resolution = engine.resolve(submissions[i])
            resolutions[i] = resolution
            if resolution.use_kv:
                resolution.node.begin_serving()
                serving_nodes.append(resolution.node)
        processes: list[ChunkedKVLoad | StaticLoad] = []
        for submission, resolution in zip(submissions, resolutions):
            process = _build_process(engine, submission, resolution)
            processes.append(process)
            link = resolution.link
            sim.add_request(
                submission.arrival_s,
                link,
                process,
                initial_throughput_bps=link.trace.bandwidth_at(0.0),
            )
        timelines = sim.run()
    finally:
        for node in serving_nodes:
            node.end_serving()

    responses = [
        _respond(engine, submission, resolution, process, timeline)
        for submission, resolution, process, timeline in zip(
            submissions, resolutions, processes, timelines
        )
    ]
    # Node hit accounting happens only once every response exists, so a
    # failure mid-batch leaves no half-recorded stats behind (the caller's
    # fallback path would otherwise count the same hits again).
    for resolution, timeline in zip(resolutions, timelines):
        if resolution.use_kv:
            resolution.node.record_hit(timeline.served_bytes, tier=resolution.tier)
    if tracer is not None:
        _emit_request_spans(tracer, submissions, resolutions, timelines, responses)
    return responses


# --------------------------------------------------------------- telemetry
def _emit_request_spans(
    tracer: Tracer,
    submissions: list[ServeRequest],
    resolutions: list[Resolution],
    timelines: list[RequestTimeline],
    responses: list[ServeResponse],
) -> None:
    """One root span per request, plus failover instants and TTFT metrics."""
    metrics = tracer.metrics
    for submission, resolution, timeline, response in zip(
        submissions, resolutions, timelines, responses
    ):
        root = emit_timeline_spans(
            tracer, timeline, label=submission.context_id, tier_config=TIER_CONFIG
        )
        root.annotate(
            used_kv_cache=resolution.use_kv,
            served_by=response.served_by,
            tier=resolution.tier,
            failed_over=resolution.failed_over,
        )
        metrics.histogram("request_ttft_s", "per-request TTFT").observe(
            response.ttft.total_s
        )
        metrics.histogram(
            "request_queueing_s", "per-request queueing delay"
        ).observe(timeline.queueing_s)
        metrics.counter("requests_served", "requests served per path").inc(
            1, path="kv" if resolution.use_kv else "text"
        )
        tracer.advance_to(timeline.finish_s)


# ----------------------------------------------------------------- process
def _build_process(
    engine: "ContextLoadingEngine", submission: ServeRequest, resolution: Resolution
) -> ChunkedKVLoad | StaticLoad:
    compute = engine.compute_model
    prompt_tokens = engine.prompt_tokens(submission.question)
    if not resolution.use_kv:
        text_bytes = resolution.num_tokens * engine.config.text_bytes_per_token
        return StaticLoad.text_load(
            resolution.num_tokens, text_bytes, compute, prompt_tokens=prompt_tokens
        )
    link = resolution.link
    node = resolution.node
    prologue: list[LoadStage] = []
    if resolution.extra_delay_s > 0.0:
        # Timeouts, backoff and hedge waits occupy the serving link
        # for their modeled duration (bytes = delay x bandwidth), so
        # retries of co-arriving requests contend for real link time.
        bandwidth_bps = link.trace.bandwidth_at(0.0)
        prologue.append(
            LoadStage(
                config=TIER_CONFIG,
                num_bytes=resolution.extra_delay_s * bandwidth_bps / 8.0,
                link=link,
            )
        )
    if resolution.tier == COLD:
        # A cold hit reads the bitstreams off the replica's tier link
        # before the serving link sees the first byte; concurrent cold
        # hits on the same node serialize on that node's tier channel.
        level_name = engine.config.default_level.name
        prologue.append(
            LoadStage(
                config=TIER_CONFIG,
                num_bytes=resolution.stored.total_bytes(level_name),
                link=node.store.tier_link,
            )
        )
    return ChunkedKVLoad(
        resolution.stored.chunks,
        policy=engine.adaptation_policy(submission.slo_s, resolution.level_override),
        compute=compute,
        slo_s=submission.slo_s,
        prompt_tokens=prompt_tokens,
        batch_key=node.node_id,
        session_key=submission.session_id,
        prologue=prologue,
    )


# ----------------------------------------------------------------- respond
def _respond(
    engine: "ContextLoadingEngine",
    submission: ServeRequest,
    resolution: Resolution,
    process: ChunkedKVLoad | StaticLoad,
    timeline: RequestTimeline,
) -> ServeResponse:
    ttft = QueueingTTFTBreakdown(
        network_s=timeline.transfer_s,
        decode_s=sum(
            stage.gpu_busy_s for stage in timeline.stages if stage.gpu_kind == DECODE
        ),
        compute_s=sum(
            stage.gpu_busy_s for stage in timeline.stages if stage.gpu_kind == PREFILL
        ),
        queueing_s=timeline.queueing_s,
    )
    return engine.respond(
        submission,
        resolution,
        process.configs if resolution.use_kv else ["text"],
        ttft=ttft,
        transmitted_bytes=timeline.served_bytes,
        arrival_s=timeline.arrival_s,
        finish_s=timeline.finish_s,
        tier_transfer_s=timeline.tier_transfer_s,
    )
