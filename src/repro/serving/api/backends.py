"""The serving backend: one object owns a deployment and serves it (§6).

A :class:`Backend` turns a :class:`~repro.serving.api.spec.ServingSpec` into a
running serving stack — the component an application framework (the paper
integrates with LangChain) talks to:

* :meth:`Backend.ingest` computes a context's KV cache (``calculate_kv``),
  encodes it at every level and stores the bitstreams (``store_kv``) with the
  error statistics reads are scored from; the tensor is not kept;
* :meth:`Backend.resolve` decides, once per request, where it is served from
  — a :class:`Resolution`: stream the stored KV cache from which replica, or
  fall back to fetching the text and prefilling, and why;
* :meth:`Backend.run` plays a batch of requests on one event simulation,
  adapting the streamed levels to bandwidth and an optional TTFT SLO, so
  requests that overlap in time contend for the links and the GPU;
* :meth:`Backend.respond` answers a request from what arrived.

The bitstreams live in one :class:`~repro.cluster.sharded_store.ShardedKVStore`
(``backend.cluster``) however many storage nodes stand behind it: the paper's
single KV storage server is the one-node case, whose node serves over the
backend's own ``link``.  Ingests are encoded once and replicated onto the
store; when a replica is down the lookup fails over along the hash ring, and
when every replica has lost the context the backend falls back to the text
path, so a degraded store degrades TTFT, never availability.

Routing also follows §7.3's observation that for short contexts loading the
text can be faster than loading the KV cache: when the estimated text-path
TTFT is lower, it reverts to the text path even for stored contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ...cluster.node import StorageNode
from ...cluster.sharded_store import Lookup, ShardedKVStore
from ...core.encoder import CacheGenEncoder, FittedCodec
from ...llm.compute_model import ComputeModel
from ...llm.quality import QualityModel
from ...llm.synthetic_model import GenerationResult, SyntheticLLM
from ...metrics.cluster import TierState, tier_state
from ...network.bandwidth import ConstantTrace, gbps
from ...network.link import NetworkLink
from ...storage.eviction import make_policy
from ...storage.kv_store import KVCacheStore, StoredContext
from ...storage.tiered import TieredKVStore
from ...streaming.adaptation import choose_policy
from ..concurrent.processes import TIER_CONFIG, ChunkedKVLoad, LoadStage, StaticLoad, distortion
from ..concurrent.simulator import ConcurrentLoadSimulator, RequestTimeline
from ..engine import profile_codec
from .spec import ServingSpec
from .types import IngestReport, ServeRequest, ServeResponse

if TYPE_CHECKING:  # pragma: no cover - types only
    from ...faults.resilience import ResilienceManager
    from ...telemetry.trace import Tracer

__all__ = ["Backend", "Resolution", "build_backend"]


def _constant_link(bandwidth_gbps: float) -> NetworkLink:
    return NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))


@dataclass
class Resolution:
    """Where one request is served from (decided before any byte moves).

    ``lookup`` is what the store's replica lookup found (serving node, stored
    record, tier, failover and resilience outcome); the other fields are what
    routing derived from it.
    """

    lookup: Lookup
    use_kv: bool
    num_tokens: int
    #: Link the request's bytes cross: the replica's for a KV read, the
    #: document store's for a text fallback.
    link: NetworkLink
    #: A degraded KV read (the lookup's), or a text fallback of a context the
    #: store once held.
    degraded: bool = False
    cause: str | None = None


class Backend:
    """Serves queries over reusable long contexts with CacheGen underneath.

    Built from a :class:`~repro.serving.api.spec.ServingSpec` and nothing
    else: the spec's model, codec configuration, GPU and quality overrides,
    and one storage node per ``num_nodes`` (hot store, plus a cold tier
    behind its own tier link when ``cold_bytes_per_node`` is set) on a ring
    with ``replication`` replicas.  The single topology's one node serves over
    the backend's own ``link``, so text and KV bytes share one channel; a
    cluster's nodes each have their own link and its text fallback reads a
    default 3 Gbps one.  The event executor's settings (batching, admission,
    GPU fleet) are read from the spec at every :meth:`run`.

    ``codec`` is the offline profile to encode with; when omitted, the
    process-wide one :func:`~repro.serving.engine.profile_codec` keeps for
    this model and configuration (loaded or profiled on first use), so every
    backend of one model in a process shares a single profile.
    ``ValueError`` if it was profiled for another model, model shape or codec
    configuration.
    """

    def __init__(self, spec: ServingSpec, codec: FittedCodec | None = None) -> None:
        self.spec = spec
        model = self.model = spec.resolved_model()
        config = self.config = spec.resolved_config()
        if codec is None:
            codec = profile_codec(model, config)
        else:
            codec.check(config, model)

        base_quality = dict(spec.base_quality) if spec.base_quality is not None else None
        quality_model = QualityModel(num_layers=model.sim_layers, base_values=base_quality)
        self.llm = SyntheticLLM(model, quality_model=quality_model)
        self.compute_model = ComputeModel(model, spec.gpu)
        encoder = self.encoder = CacheGenEncoder(config, codec=codec)

        if spec.topology == "single":
            # Text fallbacks and KV reads share the one serving link.
            self.link = _constant_link(spec.bandwidth_gbps)
            node_links = [self.link]
        else:
            self.link = NetworkLink()
            speeds = spec.node_bandwidths_gbps or (spec.bandwidth_gbps,) * spec.num_nodes
            node_links = [_constant_link(speed) for speed in speeds]

        def new_store() -> TieredKVStore:
            hot = KVCacheStore(
                encoder,
                max_bytes=spec.max_bytes_per_node,
                eviction_policy=make_policy(spec.eviction_policy),
            )
            cold = None
            if spec.cold_bytes_per_node is not None:
                cold = KVCacheStore(
                    None,
                    max_bytes=spec.cold_bytes_per_node,
                    eviction_policy=make_policy(spec.eviction_policy),
                )
            return TieredKVStore(
                hot,
                cold,
                placement=spec.placement,
                tier_link=_constant_link(spec.tier_bandwidth_gbps),
            )

        #: The sharded store every read and write goes through.
        self.cluster = ShardedKVStore(
            encoder,
            [
                StorageNode(node_id=f"node-{i}", store=new_store(), link=link)
                for i, link in enumerate(node_links)
            ],
            replication_factor=spec.replication,
        )

        self.tracer: Tracer | None = None
        self.simcheck = None
        #: SimClock factory of the event executor's simulators; the simcheck
        #: monitor injects its ClockSanitizer here.
        self.clock_factory = None
        #: Simulator of the last :meth:`run` (fleet/pool stats live on it).
        self.last_sim: ConcurrentLoadSimulator | None = None
        #: The run's :class:`~repro.faults.ResilienceManager` (``None`` unless
        #: the spec carries a resilience policy or the driver injects faults).
        self.resilience: ResilienceManager | None = None
        if spec.resilience is not None:
            from ...faults.resilience import ResilienceManager

            self.resilience = ResilienceManager(spec.resilience)
            self.cluster.resilience = self.resilience

    # ---------------------------------------------------------------- topology
    def stores(self) -> dict[str, TieredKVStore]:
        """Every bitstream store the backend reads, by node id (trace tracks are
        ``storage:<node id>``)."""
        return {node_id: node.store for node_id, node in self.cluster.nodes.items()}

    def tier_counters(self) -> TierState:
        return tier_state(self.cluster.nodes.values())

    def replace_link(self, link: NetworkLink) -> None:
        """Swap ``self.link`` for ``link`` everywhere it is in use: the text
        path and every node that serves over it."""
        for node in self.cluster.nodes.values():
            if node.link is self.link:
                node.link = link
        self.link = link

    def _link_labels(self) -> dict[int, str]:
        """Trace-track names of the links requests may cross, by ``id(link)``."""
        labels = {id(self.link): "serving"}
        for node_id, node in self.cluster.nodes.items():
            labels[id(node.link)] = node_id
            labels[id(node.store.tier_link)] = f"tier:{node_id}"
        return labels

    # --------------------------------------------------------------- telemetry
    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire a tracer through the executor and the stores (``None`` detaches).

        The simulator of the last run keeps its statistics but no tracer.
        """
        self.tracer = tracer
        if self.last_sim is not None:
            self.last_sim.detach_tracer()
        self.cluster.tracer = tracer
        for label, store in self.stores().items():
            store.tracer = tracer
            store.trace_track = f"storage:{label}"

    def attach_simcheck(self, monitor) -> None:
        """Record the monitor; the event executor runs on its sanitized clocks.

        ``None`` detaches a recorded monitor; a ``clock_factory`` set by hand
        (the race detector's) is left alone.
        """
        if monitor is not None:
            self.clock_factory = monitor.make_clock
        elif self.simcheck is not None:
            self.clock_factory = None
        self.simcheck = monitor

    # ------------------------------------------------------------------ ingest
    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        """Prefill a context once, encode its KV cache and replicate the bitstreams.

        ``encode_delay_s`` is the *modeled* GPU encode time
        (:meth:`~repro.llm.compute_model.ComputeModel.encode_delay`), not a
        wall-clock measurement: ingest is part of the simulated world, and a
        host-time read here would leak nondeterminism into traces and reports.
        """
        placement = self.cluster.store_kv(context_id, self.llm.calculate_kv(context_id, num_tokens))
        stored = placement.stored
        return IngestReport(
            context_id=context_id,
            num_tokens=stored.num_tokens,
            num_chunks=stored.num_chunks,
            stored_bytes_per_level={
                level.name: stored.total_bytes(level.name) for level in self.config.levels
            },
            encode_delay_s=self.compute_model.encode_delay(stored.num_tokens),
            replica_node_ids=placement.replica_node_ids,
            replicated_bytes=placement.replicated_bytes,
        )

    # ----------------------------------------------------------------- routing
    def resolve(self, request: ServeRequest) -> Resolution:
        """Route to the best live replica, else to text.

        ``request.num_tokens`` is only required for contexts the backend has
        never ingested; lengths of evicted contexts are remembered.
        """
        lookup = self.cluster.locate(request.context_id)
        num_tokens = request.num_tokens
        if lookup.found:
            node, stored = lookup.node, lookup.stored
            # A cold hit reads the bitstreams off the replica's disk tier
            # before the serving link sees the first byte — one serialized
            # tier-link transfer of the default level's bitstreams.
            tier_read_s = 0.0
            if lookup.cold_hit:
                tier_read_s = node.store.cold_read_delay_s(
                    stored.total_bytes(self.config.default_level.name)
                )
            if not self._prefer_text_path(
                stored.num_tokens,
                node.link,
                kv_extra_s=tier_read_s + lookup.extra_delay_s,
            ):
                return Resolution(
                    lookup,
                    use_kv=True,
                    num_tokens=stored.num_tokens,
                    link=node.link,
                    degraded=lookup.degraded,
                    cause=lookup.cause if lookup.degraded else None,
                )
            # Short context: the text path wins even though the replica holds
            # the cache — not a miss, the node just is not asked to serve.
            num_tokens = stored.num_tokens

        # A text fallback of a context the store once held is a *degraded*
        # answer (the short-context preference above is not: the text path
        # simply wins there).  The cause rides on the lookup.
        known_tokens = self.cluster.known_tokens(request.context_id)
        if num_tokens is None:
            num_tokens = known_tokens
        if num_tokens is None:
            raise ValueError(
                f"context {request.context_id!r} was never ingested here: "
                "its text fallback needs num_tokens"
            )
        degraded = known_tokens is not None and not lookup.found
        return Resolution(
            lookup,
            use_kv=False,
            num_tokens=num_tokens,
            link=self.link,
            degraded=degraded,
            cause=(lookup.cause or "evicted") if degraded else None,
        )

    def _prefer_text_path(
        self, num_tokens: int, kv_link: NetworkLink, kv_extra_s: float = 0.0
    ) -> bool:
        """Short contexts load faster as text than as KV bitstreams (§7.3).

        The two paths may use different links (the KV bitstreams come from a
        storage node, the text from the document store).
        ``kv_extra_s`` charges the KV path for delays beyond the serving link
        — a cold-tier hit pays the node's tier link before streaming starts.
        """
        compute = self.compute_model
        text_bytes = num_tokens * self.config.text_bytes_per_token
        text_ttft = self.link.estimate_transfer_time(text_bytes) + compute.prefill_delay(
            num_tokens
        )
        kv_bytes = self.model.kv_cache_bytes(num_tokens, bits_per_element=2.4)
        kv_ttft = (
            kv_link.estimate_transfer_time(kv_bytes)
            + compute.decode_delay(num_tokens)
            + kv_extra_s
        )
        return text_ttft < kv_ttft

    # --------------------------------------------------------------------- run
    def run(self, requests: Sequence[ServeRequest]) -> list[ServeResponse]:
        """Serve ``requests`` on one event simulation; responses in the given order.

        The simulator is built from the spec's executor settings (batching,
        admission, fleet) with this backend's tracer and clock factory, and
        kept as :attr:`last_sim`.

        Routing is decided before the event simulation runs, in arrival
        order: each KV-served request reserves its replica (deepening that
        node's modeled queue) so later arrivals prefer other replicas, and
        decodes of requests served by the same node share batched GPU
        launches.  The reservation is held for the whole batch — an
        approximation that treats the batch as one contention window;
        requests spaced far apart in arrival time are better served in
        separate calls.
        """
        if not requests:
            raise ValueError("no requests to run")
        spec = self.spec
        tracer = self.tracer
        sim = self.last_sim = ConcurrentLoadSimulator(
            max_decode_batch=spec.max_decode_batch,
            batch_overhead=spec.batch_overhead,
            admission_limit=spec.admission_limit,
            gpu_workers=spec.gpu_workers,
            dispatch_policy=spec.dispatch_policy,
            autoscale=spec.autoscale,
            tracer=tracer,
            clock_factory=self.clock_factory,
        )
        if tracer is not None:
            # Name the links the simulator may touch, for readable trace tracks.
            sim.link_labels.update(self._link_labels())
        resolutions: list[Resolution | None] = [None] * len(requests)
        serving_nodes = []
        try:
            arrival_order = sorted(range(len(requests)), key=lambda i: (requests[i].arrival_s, i))
            resilience = self.cluster.resilience
            for i in arrival_order:
                if tracer is not None:
                    # Routing-time events (lookup failovers, promotion on a
                    # cold hit) land at the request's arrival on the timeline.
                    tracer.advance_to(requests[i].arrival_s)
                if resilience is not None:
                    # Breaker timers and hedge stats run on arrival time.
                    resilience.now = max(resilience.now, requests[i].arrival_s)
                resolution = resolutions[i] = self.resolve(requests[i])
                if resolution.use_kv:
                    resolution.lookup.node.begin_serving()
                    serving_nodes.append(resolution.lookup.node)
            processes: list[ChunkedKVLoad | StaticLoad] = []
            for request, resolution in zip(requests, resolutions):
                process = self._load_process(request, resolution)
                processes.append(process)
                link = resolution.link
                sim.add_request(
                    request.arrival_s,
                    link,
                    process,
                    initial_throughput_bps=link.trace.bandwidth_at(0.0),
                )
            timelines = sim.run()
        finally:
            for node in serving_nodes:
                node.end_serving()

        responses = [
            self.respond(
                request,
                resolution,
                process.configs if resolution.use_kv else ["text"],
                ttft=timeline.ttft,
                transmitted_bytes=timeline.served_bytes,
                arrival_s=timeline.arrival_s,
                finish_s=timeline.finish_s,
                loading_s=timeline.loading_s,
                tier_transfer_s=timeline.tier_transfer_s,
            )
            for request, resolution, process, timeline in zip(
                requests, resolutions, processes, timelines
            )
        ]
        # Node hit accounting happens only once every response exists, so a
        # failure mid-batch leaves no half-recorded stats behind.
        for resolution, timeline in zip(resolutions, timelines):
            if resolution.use_kv:
                lookup = resolution.lookup
                lookup.node.record_hit(timeline.served_bytes, tier=lookup.tier)
        if tracer is not None:
            _emit_request_spans(tracer, requests, resolutions, timelines, responses)
        return responses

    def _load_process(
        self, request: ServeRequest, resolution: Resolution
    ) -> ChunkedKVLoad | StaticLoad:
        """What ``request`` must transfer and compute, as routed."""
        compute = self.compute_model
        prompt_tokens = max(self.llm.tokenizer.count_tokens(request.question), 1)
        if not resolution.use_kv:
            text_bytes = resolution.num_tokens * self.config.text_bytes_per_token
            return StaticLoad.text_load(
                resolution.num_tokens, text_bytes, compute, prompt_tokens=prompt_tokens
            )
        link = resolution.link
        lookup = resolution.lookup
        node = lookup.node
        prologue: list[LoadStage] = []
        if lookup.extra_delay_s > 0.0:
            # Timeouts, backoff and hedge waits occupy the serving link
            # for their modeled duration (bytes = delay x bandwidth), so
            # retries of co-arriving requests contend for real link time.
            bandwidth_bps = link.trace.bandwidth_at(0.0)
            prologue.append(
                LoadStage(
                    config=TIER_CONFIG,
                    num_bytes=lookup.extra_delay_s * bandwidth_bps / 8.0,
                    link=link,
                )
            )
        if lookup.cold_hit:
            # A cold hit reads the bitstreams off the replica's tier link
            # before the serving link sees the first byte; concurrent cold
            # hits on the same node serialize on that node's tier channel.
            level_name = self.config.default_level.name
            prologue.append(
                LoadStage(
                    config=TIER_CONFIG,
                    num_bytes=lookup.stored.total_bytes(level_name),
                    link=node.store.tier_link,
                )
            )
        # A degraded read pins the (cheaper) level the resilience layer chose
        # — adaptation would climb back to the level that just timed out.
        policy = choose_policy(
            [level.name for level in self.config.levels],
            request.slo_s,
            fixed_level=lookup.level_override or self.config.default_level.name,
            adaptive=lookup.level_override is None,
        )
        return ChunkedKVLoad(
            lookup.stored.chunks,
            policy=policy,
            compute=compute,
            slo_s=request.slo_s,
            prompt_tokens=prompt_tokens,
            batch_key=node.node_id,
            session_key=request.session_id,
            prologue=prologue,
        )

    # ----------------------------------------------------------------- respond
    def respond(
        self, request: ServeRequest, resolution: Resolution, configs: Sequence[str], **timing
    ) -> ServeResponse:
        """The answer once the context arrived as ``configs``.

        ``timing`` is the executor's half of the response (``ttft``, bytes,
        arrival/finish, loading, tier transfer); the routing half is
        ``resolution``'s.
        """
        lookup = resolution.lookup
        kv = resolution.use_kv
        if kv:
            generation = self._generate_from_stored(lookup.stored, configs, request.task)
        else:
            # Recomputing from text hands the model the lossless cache itself.
            generation = self.llm.generate(resolution.num_tokens, task=request.task)
        return ServeResponse(
            context_id=request.context_id,
            question=request.question,
            text=generation.text,
            quality=generation.quality,
            used_kv_cache=kv,
            chunk_configs=configs,
            served_by=lookup.node.node_id if kv else None,
            failed_over=kv and lookup.failed_over,
            attempted_node_ids=lookup.attempted_node_ids,
            served_tier=lookup.tier if kv else None,
            degraded=resolution.degraded,
            degrade_cause=resolution.cause,
            retries=lookup.retries,
            hedged=kv and lookup.hedged,
            **timing,
        )

    def _generate_from_stored(
        self, stored: StoredContext, configs: Sequence[str], task: str
    ) -> GenerationResult:
        """Response to a read of ``stored`` whose chunks arrived as ``configs``.

        Scored from the record's error statistics, no tensor decoded.  The
        response is fixed by the record and the per-chunk configurations, so
        it is remembered on the record (see :attr:`StoredContext.generations`).
        """
        key = (tuple(configs), task)
        generation = stored.generations.get(key)
        if generation is None:
            generation = stored.generations[key] = self.llm.generate(
                stored.num_tokens,
                distortion(stored.chunks, configs, stored.variance),
                task=task,
            )
        return generation


def _emit_request_spans(
    tracer: Tracer,
    requests: Sequence[ServeRequest],
    resolutions: list[Resolution],
    timelines: list[RequestTimeline],
    responses: list[ServeResponse],
) -> None:
    """One root span per request, plus failover instants and TTFT metrics."""
    from ...telemetry.trace import emit_timeline_spans

    metrics = tracer.metrics
    for request, resolution, timeline, response in zip(
        requests, resolutions, timelines, responses
    ):
        root = emit_timeline_spans(
            tracer, timeline, label=request.context_id, tier_config=TIER_CONFIG
        )
        root.annotate(
            used_kv_cache=resolution.use_kv,
            served_by=response.served_by,
            tier=response.served_tier,
            failed_over=response.failed_over,
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


def build_backend(spec: ServingSpec, *, codec: FittedCodec | None = None) -> Backend:
    """Build the serving backend a spec declares.

    The first backend of a model in a process takes its codec from
    :func:`~repro.serving.engine.profile_codec`: loaded from the shipped
    file for mistral-7b at the default fit fields, profiled otherwise, which
    is then most of the cost.  Later ones reuse it and build in under a
    millisecond.  ``codec=`` injects a profile explicitly (``ValueError`` if
    it was profiled for another model, model shape or codec configuration).

    Example
    -------
    >>> spec = ServingSpec(topology="cluster", num_nodes=4, gpu_workers=2)
    >>> backend = build_backend(spec)
    >>> sorted(backend.stores())
    ['node-0', 'node-1', 'node-2', 'node-3']
    """
    return Backend(spec, codec)
