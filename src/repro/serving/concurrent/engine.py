"""The event-driven executor: staged requests played through the event engine.

:class:`ConcurrentEngine` serves *sets* of requests over a wrapped
:class:`~repro.serving.engine.ContextLoadingEngine` (or its sharded subclass):
:class:`~repro.serving.api.types.ServeRequest` objects are staged with
:meth:`~ConcurrentEngine.submit`, then :meth:`~ConcurrentEngine.run` plays
them out against the shared links and the GPU run queue.  Each response
carries a :class:`~repro.metrics.system.QueueingTTFTBreakdown`, so TTFT under
concurrency decomposes into queueing delay + transfer + compute instead of
being scaled by a static GPU share.

Where a request is served from is the wrapped engine's decision
(:meth:`~repro.serving.engine.ContextLoadingEngine.resolve`), taken in arrival
order before the simulation runs: on a cluster each request streams from the
replica the smart lookup picks — the modeled per-node queue depth is
maintained across the batch, so co-arriving requests spread over replicas —
and decodes of requests served by the same node share batched GPU launches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...metrics.system import QueueingTTFTBreakdown
from ...storage.tiered import COLD, HOT
from ...telemetry.trace import Tracer, emit_timeline_spans
from ..api.types import ServeRequest, ServeResponse
from .processes import TIER_CONFIG, ChunkedKVLoad, LoadStage, StaticLoad
from .resources import DECODE, PREFILL
from .simulator import ConcurrentLoadSimulator, RequestTimeline

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine import ContextLoadingEngine, Resolution
    from ..fleet.autoscale import AutoscaleSpec
    from ..fleet.dispatch import DispatchPolicy

__all__ = ["ConcurrentEngine"]


class ConcurrentEngine:
    """Serves concurrent queries over a wrapped context-loading engine.

    Parameters
    ----------
    engine:
        The underlying :class:`~repro.serving.engine.ContextLoadingEngine`
        (or :class:`~repro.cluster.frontend.ClusterFrontend`); ingest, codec,
        storage and quality evaluation are delegated to it.
    max_decode_batch:
        Cap on batched decode launches on the GPU.
    batch_overhead:
        Marginal cost of each extra decode in a batch (fraction of its solo
        duration).
    admission_limit:
        Optional cap on requests in flight; excess arrivals queue FIFO.
    gpu_workers / dispatch_policy / autoscale:
        Fleet settings forwarded to the
        :class:`~repro.serving.concurrent.simulator.ConcurrentLoadSimulator`:
        the number of GPU workers behind the compute stage, how tasks are
        routed to them, and the optional
        :class:`~repro.serving.fleet.autoscale.AutoscaleSpec`.
    """

    def __init__(
        self,
        engine: "ContextLoadingEngine",
        max_decode_batch: int = 16,
        batch_overhead: float = 0.2,
        admission_limit: int | None = None,
        gpu_workers: int = 1,
        dispatch_policy: "str | DispatchPolicy" = "least-loaded",
        autoscale: "AutoscaleSpec | None" = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.engine = engine
        self.max_decode_batch = max_decode_batch
        self.batch_overhead = batch_overhead
        self.admission_limit = admission_limit
        self.gpu_workers = gpu_workers
        self.dispatch_policy = dispatch_policy
        self.autoscale = autoscale
        self.tracer = tracer
        #: Optional SimClock factory forwarded to each run's simulator; the
        #: simcheck monitor injects its ClockSanitizer here.
        self.clock_factory = None
        self._submissions: list[ServeRequest] = []
        #: Simulator of the last :meth:`run` (fleet/pool stats live on it).
        self.last_sim: ConcurrentLoadSimulator | None = None

    def submit(self, request: ServeRequest) -> int:
        """Stage a request; it is served on the next :meth:`run`."""
        self._submissions.append(request)
        return len(self._submissions) - 1

    # --------------------------------------------------------------------- run
    def run(self) -> list[ServeResponse]:
        """Serve all staged queries concurrently; responses in staging order.

        Routing is decided before the event simulation runs, in arrival
        order: each KV-served request reserves its replica (deepening that
        node's modeled queue) so later arrivals prefer other replicas.  The
        reservation is held for the whole batch — an approximation that
        treats the batch as one contention window; requests spaced far apart
        in arrival time are better served in separate :meth:`run` calls.
        """
        if not self._submissions:
            raise ValueError("no queries submitted")
        submissions, self._submissions = self._submissions, []

        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        sim = ConcurrentLoadSimulator(
            max_decode_batch=self.max_decode_batch,
            batch_overhead=self.batch_overhead,
            admission_limit=self.admission_limit,
            gpu_workers=self.gpu_workers,
            dispatch_policy=self.dispatch_policy,
            autoscale=self.autoscale,
            tracer=tracer,
            clock_factory=self.clock_factory,
        )
        self.last_sim = sim
        if tracer is not None:
            # Name the links the simulator may touch, for readable trace tracks.
            sim.link_labels.update(self.engine.link_labels())
        resolutions: list[Resolution | None] = [None] * len(submissions)
        serving_nodes = []
        try:
            arrival_order = sorted(
                range(len(submissions)), key=lambda i: (submissions[i].arrival_s, i)
            )
            resilience = self.engine.resilience
            for i in arrival_order:
                if tracer is not None:
                    # Routing-time events (lookup failovers, promotion on a
                    # cold hit) land at the request's arrival on the timeline.
                    tracer.advance_to(submissions[i].arrival_s)
                if resilience is not None:
                    # Breaker timers and hedge stats run on arrival time.
                    resilience.now = max(resilience.now, submissions[i].arrival_s)
                resolution = self.engine.resolve(submissions[i])
                resolutions[i] = resolution
                if resolution.node is not None and resolution.use_kv:
                    resolution.node.begin_serving()
                    serving_nodes.append(resolution.node)
            processes: list[ChunkedKVLoad | StaticLoad] = []
            for submission, resolution in zip(submissions, resolutions):
                process = self._build_process(submission, resolution)
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
            self._respond(submission, resolution, process, timeline)
            for submission, resolution, process, timeline in zip(
                submissions, resolutions, processes, timelines
            )
        ]
        # Node hit accounting happens only once every response exists, so a
        # failure mid-batch leaves no half-recorded stats behind (the caller's
        # fallback path would otherwise count the same hits again).
        for resolution, timeline in zip(resolutions, timelines):
            if resolution.use_kv and resolution.node is not None:
                resolution.node.record_hit(
                    timeline.served_bytes, tier=resolution.tier or HOT
                )
        if tracer is not None:
            self._emit_request_spans(tracer, submissions, resolutions, timelines, responses)
        return responses

    # --------------------------------------------------------------- telemetry
    def _emit_request_spans(
        self,
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
        self, submission: ServeRequest, resolution: Resolution
    ) -> ChunkedKVLoad | StaticLoad:
        engine = self.engine
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
        if resolution.tier == COLD and node is not None:
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
            batch_key=node.node_id if node is not None else "local-gpu",
            session_key=submission.session_id,
            prologue=prologue,
        )

    # ----------------------------------------------------------------- respond
    def _respond(
        self,
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
        return self.engine.respond(
            submission,
            resolution,
            process.configs if resolution.use_kv else ["text"],
            ttft=ttft,
            transmitted_bytes=timeline.served_bytes,
            arrival_s=timeline.arrival_s,
            finish_s=timeline.finish_s,
            tier_transfer_s=timeline.tier_transfer_s,
        )
