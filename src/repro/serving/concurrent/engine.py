"""The concurrent serving facade: batch queries through the event engine.

:class:`ConcurrentEngine` mirrors the
:class:`~repro.serving.engine.ContextLoadingEngine` API — ``ingest`` contexts,
``query`` them — but serves *sets* of queries through the discrete-event
simulator: requests are submitted with arrival times, then :meth:`run` plays
them out against the shared links and the GPU run queue.  Each response
carries a :class:`~repro.metrics.system.QueueingTTFTBreakdown`, so TTFT under
concurrency decomposes into queueing delay + transfer + compute instead of
being scaled by a static GPU share.

The facade wraps either a plain single-node engine or a
:class:`~repro.cluster.frontend.ClusterFrontend` (detected by its ``cluster``
attribute): in cluster mode each request streams from the replica the smart
lookup picks — the modeled per-node queue depth is maintained across the
batch, so co-arriving requests spread over replicas — and decodes of requests
served by the same node share batched GPU launches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...metrics.system import QueueingTTFTBreakdown
from ...streaming.adaptation import FixedLevelPolicy, SLOAwareAdapter
from ...telemetry.trace import Tracer, emit_timeline_spans
from .._compat import warn_deprecated_entry_point
from ..api.types import ServeResponse
from .processes import TIER_CONFIG, ChunkedKVLoad, LoadStage, StaticLoad
from .resources import DECODE, PREFILL
from .simulator import ConcurrentLoadSimulator, RequestTimeline

if TYPE_CHECKING:  # avoid a circular import; the engine is only composed with
    from ..engine import ContextLoadingEngine
    from ..fleet.autoscale import AutoscaleSpec
    from ..fleet.dispatch import DispatchPolicy

__all__ = ["ConcurrentQueryResponse", "ConcurrentEngine"]

#: Tier labels, mirroring :data:`repro.storage.tiered.HOT`/``COLD``.  Spelled
#: out here because ``repro.storage`` imports the streaming package (which
#: imports this one) — importing it back at module level would be a cycle.
HOT = "hot"
COLD = "cold"


@dataclass
class ConcurrentQueryResponse(ServeResponse):
    """Query response of the event-driven engine.

    Historically this subclass carried the event-schedule fields
    (``arrival_s`` / ``finish_s`` / ``queueing_s``); those now live on the
    unified :class:`~repro.serving.api.ServeResponse`, of which this is a
    field-for-field alias kept for back compatibility.
    """


@dataclass
class _Submission:
    context_id: str
    question: str
    arrival_s: float
    num_tokens: int | None
    task: str
    slo_s: float | None
    session_id: str | None = None


@dataclass
class _Resolution:
    """Where one submission will be served from (fixed before the sim runs)."""

    use_kv: bool
    num_tokens: int
    stored: object | None = None
    node: object | None = None  # StorageNode in cluster mode
    failed_over: bool = False
    #: Nodes the cluster lookup touched before settling, in order.
    attempted: tuple[str, ...] = ()
    #: Tier the replica held the context in when routing was decided.
    tier: str | None = None
    #: Resilience outcome of the lookup (see ``cluster.sharded_store.Lookup``).
    degraded: bool = False
    cause: str | None = None
    retries: int = 0
    hedged: bool = False
    #: Modeled retry/hedge delay charged as link occupancy before streaming.
    extra_delay_s: float = 0.0
    #: Codec level a degraded read streams at (``None`` = policy default).
    level_override: str | None = None


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

    .. deprecated::
        Direct construction is deprecated; declare a
        :class:`repro.serving.api.ServingSpec` with ``concurrency > 1`` and
        use :func:`repro.serving.api.serve` / ``build_backend`` instead.
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
        warn_deprecated_entry_point(
            "ConcurrentEngine", 'ServingSpec(topology="single", concurrency=N)'
        )
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
        self._submissions: list[_Submission] = []
        #: Simulator of the last :meth:`run` (fleet/pool stats live on it).
        self.last_sim: ConcurrentLoadSimulator | None = None

    # ------------------------------------------------------------------ mirror
    def ingest(self, context_id: str, num_tokens: int):
        """Offline path: delegate to the wrapped engine (not simulated)."""
        return self.engine.ingest(context_id, num_tokens)

    def submit(
        self,
        context_id: str,
        question: str,
        arrival_s: float = 0.0,
        num_tokens: int | None = None,
        task: str = "qa_accuracy",
        slo_s: float | None = None,
        session_id: str | None = None,
    ) -> int:
        """Stage a query; it is served on the next :meth:`run`.

        ``session_id`` tags the query as part of a chat session so the
        fleet's sticky dispatch can keep the session on one GPU worker.
        """
        self._submissions.append(
            _Submission(
                context_id, question, arrival_s, num_tokens, task, slo_s, session_id
            )
        )
        return len(self._submissions) - 1

    def query(
        self,
        context_id: str,
        question: str,
        num_tokens: int | None = None,
        task: str = "qa_accuracy",
        slo_s: float | None = None,
    ) -> ConcurrentQueryResponse:
        """Single-query convenience mirroring ``ContextLoadingEngine.query``."""
        self.submit(context_id, question, num_tokens=num_tokens, task=task, slo_s=slo_s)
        return self.run()[0]

    # --------------------------------------------------------------------- run
    def run(self) -> list[ConcurrentQueryResponse]:
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
            self._label_links(sim)
        resolutions: list[_Resolution | None] = [None] * len(submissions)
        serving_nodes = []
        try:
            arrival_order = sorted(
                range(len(submissions)), key=lambda i: (submissions[i].arrival_s, i)
            )
            resilience = getattr(
                getattr(self.engine, "cluster", None), "resilience", None
            )
            for i in arrival_order:
                if tracer is not None:
                    # Routing-time events (lookup failovers, promotion on a
                    # cold hit) land at the request's arrival on the timeline.
                    tracer.advance_to(submissions[i].arrival_s)
                if resilience is not None:
                    # Breaker timers and hedge stats run on arrival time.
                    resilience.now = max(resilience.now, submissions[i].arrival_s)
                resolution = self._resolve(submissions[i])
                resolutions[i] = resolution
                if resolution.node is not None and resolution.use_kv:
                    resolution.node.begin_serving()
                    serving_nodes.append(resolution.node)
            processes: list[ChunkedKVLoad | StaticLoad] = []
            for submission, resolution in zip(submissions, resolutions):
                process, link, throughput = self._build_process(submission, resolution)
                processes.append(process)
                sim.add_request(
                    submission.arrival_s, link, process, initial_throughput_bps=throughput
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
    def _label_links(self, sim: ConcurrentLoadSimulator) -> None:
        """Name the links the simulator may touch, for readable trace tracks."""
        engine = self.engine
        sim.link_labels[id(engine.link)] = "serving"
        cluster = getattr(engine, "cluster", None)
        if cluster is not None:
            for node_id, node in cluster.nodes.items():
                sim.link_labels[id(node.link)] = node_id
                tier_link = getattr(node.store, "tier_link", None)
                if tier_link is not None:
                    sim.link_labels[id(tier_link)] = f"tier:{node_id}"

    def _emit_request_spans(
        self,
        tracer: Tracer,
        submissions: list[_Submission],
        resolutions: list[_Resolution | None],
        timelines: list[RequestTimeline],
        responses: list[ConcurrentQueryResponse],
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

    # ----------------------------------------------------------------- resolve
    def _resolve(self, submission: _Submission) -> _Resolution:
        """Mirror of the wrapped engine's routing, decided up front.

        Uses the engine's protected text-vs-KV heuristic and reference-KV memo
        on purpose: the facade is the concurrent half of the same subsystem.
        """
        engine = self.engine
        cluster = getattr(engine, "cluster", None)
        num_tokens = submission.num_tokens

        attempted: tuple[str, ...] = ()
        degraded = False
        cause: str | None = None
        retries = 0
        if cluster is not None:
            lookup = cluster.locate(submission.context_id)
            attempted = lookup.attempted_node_ids
            retries = lookup.retries
            if lookup.found:
                node, stored = lookup.node, lookup.stored
                tier_read_s = 0.0
                if lookup.cold_hit:
                    level_name = engine.config.default_level.name
                    tier_read_s = node.cold_read_delay_s(
                        stored.total_bytes(level_name)
                    )
                if not engine._prefer_text_path(
                    stored.num_tokens,
                    kv_link=node.link,
                    text_link=engine.link,
                    kv_extra_s=tier_read_s + lookup.extra_delay_s,
                ):
                    return _Resolution(
                        use_kv=True,
                        num_tokens=stored.num_tokens,
                        stored=stored,
                        node=node,
                        failed_over=lookup.failed_over,
                        attempted=attempted,
                        tier=lookup.tier,
                        degraded=lookup.degraded,
                        cause=lookup.cause if lookup.degraded else None,
                        retries=lookup.retries,
                        hedged=lookup.hedged,
                        extra_delay_s=lookup.extra_delay_s,
                        level_override=lookup.level_override,
                    )
                num_tokens = stored.num_tokens
            else:
                # A text fallback of a context the cluster once held is a
                # degraded answer (the short-context preference is not).
                degraded = cluster.known_tokens(submission.context_id) is not None
                cause = (lookup.cause or "evicted") if degraded else None
            if num_tokens is None:
                num_tokens = cluster.known_tokens(submission.context_id)
        elif engine.store_up and submission.context_id in engine.store:
            stored = engine.store.get_context(submission.context_id)
            if not engine._prefer_text_path(stored.num_tokens):
                return _Resolution(
                    use_kv=True, num_tokens=stored.num_tokens, stored=stored, tier=HOT
                )
            num_tokens = stored.num_tokens
        elif not engine.store_up and submission.context_id in engine.store:
            # The one store is down but holds the context: degrade to text.
            degraded = True
            cause = "node_down"
            if num_tokens is None:
                num_tokens = engine.store.peek_context(submission.context_id).num_tokens

        if num_tokens is None:
            raise ValueError(
                "num_tokens is required for contexts that have not been ingested"
            )
        return _Resolution(
            use_kv=False,
            num_tokens=num_tokens,
            attempted=attempted,
            degraded=degraded,
            cause=cause,
            retries=retries,
        )

    def _build_process(self, submission: _Submission, resolution: _Resolution):
        engine = self.engine
        compute = engine.compute_model
        prompt_tokens = max(engine.llm.tokenizer.count_tokens(submission.question), 1)
        if resolution.use_kv:
            link = resolution.node.link if resolution.node is not None else engine.link
            if resolution.level_override is not None:
                # A degraded read pins the cheaper level the resilience layer
                # chose — adaptation would climb back to the one that timed out.
                policy = FixedLevelPolicy(level_name=resolution.level_override)
            elif submission.slo_s is not None:
                policy = SLOAwareAdapter(
                    level_names=[level.name for level in engine.config.levels]
                )
            else:
                policy = FixedLevelPolicy(level_name=engine.config.default_level.name)
            batch_key = (
                resolution.node.node_id if resolution.node is not None else "local-gpu"
            )
            # A cold hit reads the bitstreams off the replica's tier link
            # before the serving link sees the first byte; concurrent cold
            # hits on the same node serialize on that node's tier channel.
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
            if resolution.tier == COLD and resolution.node is not None:
                level_name = engine.config.default_level.name
                prologue.append(
                    LoadStage(
                        config=TIER_CONFIG,
                        num_bytes=resolution.stored.total_bytes(level_name),
                        link=resolution.node.store.tier_link,
                    )
                )
            process = ChunkedKVLoad(
                resolution.stored.chunks,
                policy=policy,
                compute=compute,
                slo_s=submission.slo_s,
                prompt_tokens=prompt_tokens,
                batch_key=batch_key,
                session_key=submission.session_id,
                prologue=prologue,
            )
            return process, link, link.trace.bandwidth_at(0.0)
        link = engine.link
        text_bytes = resolution.num_tokens * engine.config.text_bytes_per_token
        process = StaticLoad.text_load(
            resolution.num_tokens, text_bytes, compute, prompt_tokens=prompt_tokens
        )
        return process, link, link.trace.bandwidth_at(0.0)

    # ----------------------------------------------------------------- respond
    def _respond(
        self,
        submission: _Submission,
        resolution: _Resolution,
        process: ChunkedKVLoad | StaticLoad,
        timeline: RequestTimeline,
    ) -> ConcurrentQueryResponse:
        engine = self.engine
        if resolution.use_kv:
            assert isinstance(process, ChunkedKVLoad)
            chunk_configs = process.configs
            generation = engine._generate_from_stored(
                resolution.stored, chunk_configs, submission.task
            )
        else:
            # Recomputing from text hands the model the lossless cache itself.
            generation = engine.llm.generate_with_kv(
                engine._reference_kv(submission.context_id, resolution.num_tokens),
                task=submission.task,
            )
            chunk_configs = ["text"]

        decode_s = sum(
            stage.gpu_busy_s for stage in timeline.stages if stage.gpu_kind == DECODE
        )
        compute_s = sum(
            stage.gpu_busy_s for stage in timeline.stages if stage.gpu_kind == PREFILL
        )
        ttft = QueueingTTFTBreakdown(
            network_s=timeline.transfer_s,
            decode_s=decode_s,
            compute_s=compute_s,
            queueing_s=timeline.queueing_s,
        )
        served_by = None
        if resolution.use_kv and resolution.node is not None:
            served_by = resolution.node.node_id
        return ConcurrentQueryResponse(
            context_id=submission.context_id,
            question=submission.question,
            text=generation.text,
            quality=generation.quality,
            ttft=ttft,
            used_kv_cache=resolution.use_kv,
            chunk_configs=chunk_configs,
            transmitted_bytes=timeline.served_bytes,
            served_by=served_by,
            failed_over=resolution.failed_over,
            attempted_node_ids=resolution.attempted,
            arrival_s=timeline.arrival_s,
            finish_s=timeline.finish_s,
            served_tier=resolution.tier if resolution.use_kv else None,
            tier_transfer_s=timeline.tier_transfer_s,
            degraded=resolution.degraded,
            degrade_cause=resolution.cause,
            retries=resolution.retries,
            hedged=resolution.hedged,
        )
