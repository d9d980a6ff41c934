"""Execution backends behind the unified serving API.

A :class:`Backend` turns a :class:`~repro.serving.api.spec.ServingSpec` into a
running serving stack and speaks the unified request/response shapes:

* :class:`SingleNodeBackend` — the sequential single-node engine (one store,
  one link, one query at a time);
* :class:`ConcurrentBackend` — the event-driven engine over a single node:
  staged requests contend for the shared link and GPU run queue;
* :class:`ClusterBackend` — the sharded/replicated (optionally tiered)
  cluster frontend, served sequentially or through the event engine.

All three expose the same protocol — ``ingest`` / ``submit`` / ``run`` /
``report`` — and return :class:`~repro.serving.api.types.ServeResponse`
objects with one schema, so experiments swap backends without re-plumbing.
Routing is the wrapped engine's ``resolve``; a backend only picks the
executor: the engine's own sequential ``serve`` when ``spec.concurrency == 1``,
the :class:`~repro.serving.concurrent.engine.ConcurrentEngine` otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from ...faults.resilience import ResilienceManager
from ...metrics.cluster import NodeSummary, TierState, tier_state
from ...network.bandwidth import ConstantTrace, gbps
from ...network.link import NetworkLink
from ...telemetry.slo import AlertEngine, SLOObjective
from ...telemetry.timeseries import TimeSeriesRecorder, auto_window_s
from ...telemetry.trace import Tracer, emit_breakdown_spans
from ..concurrent.engine import ConcurrentEngine
from ..engine import ContextLoadingEngine
from ..pipeline import IngestReport
from .spec import ServingSpec
from .types import RunReport, ServeRequest, ServeResponse

if TYPE_CHECKING:  # pragma: no cover - the frontend's package imports this one
    from ...cluster.frontend import ClusterFrontend

__all__ = [
    "Backend",
    "SingleNodeBackend",
    "ConcurrentBackend",
    "ClusterBackend",
    "build_backend",
]


def _constant_link(bandwidth_gbps: float) -> NetworkLink:
    return NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))


@runtime_checkable
class Backend(Protocol):
    """What every execution backend must speak."""

    spec: ServingSpec

    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        """Prefill + encode + store a context (offline path, not simulated)."""
        ...

    def submit(self, request: ServeRequest) -> int:
        """Stage a request; served on the next :meth:`run`."""
        ...

    def run(self) -> list[ServeResponse]:
        """Serve all staged requests; responses in staging order."""
        ...

    def report(self, responses: Sequence[ServeResponse], **counters) -> RunReport:
        """Assemble the unified run report over served responses."""
        ...

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire a telemetry tracer through the backend's engines and stores."""
        ...

    def attach_simcheck(self, monitor) -> None:
        """Wire a simcheck monitor (sanitized clocks) through the backend."""
        ...

    # ------------------------------------------------------------- state taps
    def total_evictions(self) -> int: ...

    def tier_counters(self) -> TierState: ...

    def node_summaries(self) -> list[NodeSummary]: ...


class _EngineBackend:
    """Shared submission/run/report plumbing of the three adapters."""

    #: The run's :class:`~repro.faults.ResilienceManager` (``None`` unless the
    #: spec carries a resilience policy or the driver injects faults).
    resilience = None

    def __init__(self, spec: ServingSpec, engine: ContextLoadingEngine) -> None:
        self.spec = spec
        self.engine = engine
        self.tracer: Tracer | None = None
        self.simcheck = None
        self._staged: list[ServeRequest] = []
        #: The event-driven executor; ``None`` serves sequentially.
        self._concurrent: ConcurrentEngine | None = None

    def _event_engine(self) -> ConcurrentEngine:
        spec = self.spec
        return ConcurrentEngine(
            self.engine,
            max_decode_batch=spec.max_decode_batch,
            batch_overhead=spec.batch_overhead,
            admission_limit=spec.admission_limit,
            gpu_workers=spec.gpu_workers,
            dispatch_policy=spec.dispatch_policy,
            autoscale=spec.autoscale,
        )

    # --------------------------------------------------------------- telemetry
    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire a tracer through the backend (subclasses add their stores)."""
        self.tracer = tracer
        if self._concurrent is not None:
            self._concurrent.tracer = tracer

    def attach_simcheck(self, monitor) -> None:
        """Record the monitor; the event-driven executor also takes its clocks."""
        self.simcheck = monitor
        if self._concurrent is not None:
            self._concurrent.clock_factory = monitor.make_clock if monitor else None

    def _active_tracer(self) -> Tracer | None:
        tracer = self.tracer
        return tracer if tracer is not None and tracer.enabled else None

    @staticmethod
    def _trace_store(store, tracer: Tracer | None, track: str) -> None:
        """Point a KV store (and its cold tier, if any) at the tracer."""
        store.tracer = tracer
        store.trace_track = track
        hot = getattr(store, "hot", None)
        if hot is not None:  # a TieredKVStore wraps an inner hot store
            hot.tracer = tracer
            hot.trace_track = track

    # ------------------------------------------------------------------- serve
    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        return self.engine.ingest(context_id, num_tokens)

    def submit(self, request: ServeRequest) -> int:
        self._staged.append(request)
        return len(self._staged) - 1

    def run(self) -> list[ServeResponse]:
        if not self._staged:
            raise ValueError("no requests submitted")
        staged, self._staged = self._staged, []
        if self._concurrent is None:
            return self._serve_sequential(staged)
        for request in staged:
            self._concurrent.submit(request)
        return self._concurrent.run()

    def _serve_sequential(self, staged: list[ServeRequest]) -> list[ServeResponse]:
        """One-at-a-time serving in arrival order, responses in staging order."""
        tracer = self._active_tracer()
        resilience = self.resilience
        order = sorted(range(len(staged)), key=lambda i: (staged[i].arrival_s, i))
        responses: list[ServeResponse | None] = [None] * len(staged)
        for i in order:
            request = staged[i]
            if resilience is not None:
                # Breaker timers and repair queues run on arrival time.
                resilience.now = max(resilience.now, request.arrival_s)
            if tracer is not None:
                tracer.advance_to(request.arrival_s)
            response = responses[i] = self.engine.serve(request)
            if tracer is not None:
                root = emit_breakdown_spans(
                    tracer,
                    label=request.context_id,
                    arrival_s=request.arrival_s,
                    ttft=response.ttft,
                )
                root.annotate(used_kv_cache=response.used_kv_cache)
                tracer.metrics.histogram("request_ttft_s", "per-request TTFT").observe(
                    response.ttft_s
                )
                tracer.metrics.counter("requests_served", "requests served per path").inc(
                    1, path="kv" if response.used_kv_cache else "text"
                )
                tracer.advance_to(response.finish_s)
        return [response for response in responses if response is not None]

    # ------------------------------------------------------------------ report
    def report(
        self,
        responses: Sequence[ServeResponse],
        *,
        slo_s: float | None = None,
        shed: int = 0,
        hard_failures: int = 0,
        ingests: int = 0,
        failed_ingests: int = 0,
        replication_bytes: float = 0.0,
        evictions_before: int = 0,
        tier_before: TierState | None = None,
        mean_context_tokens: int = 0,
        min_duration_s: float = 0.0,
        shed_times: Sequence[float] = (),
        window_s: float | None = None,
        objectives: Sequence[SLOObjective] = (),
        alert_rules=None,
    ) -> RunReport:
        """Unified report; ``*_before`` snapshots make the counters per-run."""
        tier_now = self.tier_counters()
        before = tier_before or TierState(0, 0, 0.0, 0.0)
        report = RunReport.from_responses(
            responses,
            spec=self.spec,
            slo_s=slo_s if slo_s is not None else self.spec.slo_s,
            shed=shed,
            hard_failures=hard_failures,
            ingests=ingests,
            failed_ingests=failed_ingests,
            replication_bytes=replication_bytes,
            total_evictions=self.total_evictions() - evictions_before,
            tier=TierState(
                demotions=tier_now.demotions - before.demotions,
                promotions=tier_now.promotions - before.promotions,
                hot_bytes=tier_now.hot_bytes,
                cold_bytes=tier_now.cold_bytes,
            ),
            node_summaries=self.node_summaries(),
            mean_context_tokens=mean_context_tokens,
            min_duration_s=min_duration_s,
        )
        if responses or shed_times:
            recorder = TimeSeriesRecorder.from_run(
                responses,
                window_s=window_s or auto_window_s(report.duration_s),
                shed_times=shed_times,
                tracer=self._active_tracer(),
                duration_s=report.duration_s,
            )
            report.timeseries = recorder
            report.alerts = AlertEngine(objectives, rules=alert_rules).evaluate(
                recorder.windows()
            )
        return report


class SingleNodeBackend(_EngineBackend):
    """Sequential serving over one :class:`ContextLoadingEngine`."""

    kind = "single"

    def __init__(self, spec: ServingSpec, engine: ContextLoadingEngine | None = None) -> None:
        if engine is None:
            engine = ContextLoadingEngine(
                spec.model,
                link=spec.link or _constant_link(spec.bandwidth_gbps),
                config=spec.resolved_config(),
                gpu=spec.gpu,
                base_quality=(
                    dict(spec.base_quality) if spec.base_quality is not None else None
                ),
                store_max_bytes=spec.max_bytes_per_node,
                store_eviction_policy=spec.eviction_policy,
            )
        super().__init__(spec, engine)

    def attach_tracer(self, tracer: Tracer | None) -> None:
        super().attach_tracer(tracer)
        self._trace_store(self.engine.store, tracer, "storage:local")

    # ---------------------------------------------------------------- topology
    def mark_down(self, node_id: str | None = None) -> None:
        """Crash the node: its store goes dark, queries degrade to text."""
        self.engine.store_up = False

    def mark_up(self, node_id: str | None = None) -> None:
        self.engine.store_up = True

    # ------------------------------------------------------------- state taps
    def total_evictions(self) -> int:
        return self.engine.store.eviction_count

    def tier_counters(self) -> TierState:
        return TierState(0, 0, float(self.engine.store.storage_bytes()), 0.0)

    def node_summaries(self) -> list[NodeSummary]:
        return []


class ConcurrentBackend(SingleNodeBackend):
    """Event-driven serving over one node: queueing, batching, admission."""

    kind = "concurrent"

    def __init__(self, spec: ServingSpec, engine: ContextLoadingEngine | None = None) -> None:
        super().__init__(spec, engine=engine)
        self._concurrent = self._event_engine()


class ClusterBackend(_EngineBackend):
    """Cluster serving: sharded, replicated, optionally tiered nodes.

    Sequential when ``spec.concurrency == 1``; otherwise staged requests are
    played through the event-driven engine against the replica links and the
    shared GPU run queue.
    """

    kind = "cluster"

    def __init__(self, spec: ServingSpec, frontend: "ClusterFrontend | None" = None) -> None:
        if frontend is None:
            from ...cluster.frontend import ClusterFrontend

            speeds = spec.node_bandwidths_gbps or (spec.bandwidth_gbps,) * spec.num_nodes
            tiered = spec.cold_bytes_per_node is not None
            frontend = ClusterFrontend(
                spec.model,
                node_links=[_constant_link(speed) for speed in speeds],
                replication_factor=spec.replication,
                max_bytes_per_node=spec.max_bytes_per_node,
                eviction_policy=spec.eviction_policy,
                cold_bytes_per_node=spec.cold_bytes_per_node,
                tier_links=(
                    [
                        _constant_link(spec.tier_bandwidth_gbps)
                        for _ in range(spec.num_nodes)
                    ]
                    if tiered
                    else None
                ),
                placement=spec.placement,
                config=spec.resolved_config(),
                gpu=spec.gpu,
                base_quality=(
                    dict(spec.base_quality) if spec.base_quality is not None else None
                ),
                text_link=(
                    _constant_link(spec.text_bandwidth_gbps)
                    if spec.text_bandwidth_gbps is not None
                    else None
                ),
            )
        super().__init__(spec, frontend)
        self.frontend = frontend
        if spec.resilience is not None:
            self.resilience = ResilienceManager(spec.resilience)
            self.frontend.cluster.resilience = self.resilience
        if spec.concurrency > 1:
            self._concurrent = self._event_engine()

    # --------------------------------------------------------------- telemetry
    def attach_tracer(self, tracer: Tracer | None) -> None:
        super().attach_tracer(tracer)
        cluster = self.frontend.cluster
        cluster.tracer = tracer
        for node_id, node in cluster.nodes.items():
            self._trace_store(node.store, tracer, f"storage:{node_id}")

    # ---------------------------------------------------------------- topology
    def mark_down(self, node_id: str) -> None:
        self.frontend.mark_down(node_id)

    def mark_up(self, node_id: str) -> None:
        self.frontend.mark_up(node_id)

    def replicas_for(self, context_id: str) -> list[str]:
        """Node ids holding replicas of a context (public topology tap).

        Examples and tests use this instead of reaching into
        ``backend.frontend.cluster`` internals.
        """
        return list(self.frontend.cluster.replicas_for(context_id))

    # ------------------------------------------------------------- state taps
    def total_evictions(self) -> int:
        return self.frontend.cluster.total_evictions()

    def tier_counters(self) -> TierState:
        return tier_state(self.frontend.cluster.nodes.values())

    def node_summaries(self) -> list[NodeSummary]:
        return self.frontend.cluster.node_summaries()


def build_backend(spec: ServingSpec, kind: str | None = None) -> Backend:
    """Build the execution backend a spec declares.

    ``kind`` overrides the derived choice (e.g. to force the sequential
    adapter on a spec whose ``concurrency`` is above 1); it must stay
    compatible with the spec's topology.

    Example
    -------
    >>> spec = ServingSpec(topology="cluster", num_nodes=4)
    >>> backend = build_backend(spec)  # kind inferred from the topology
    >>> backend.kind
    'cluster'
    """
    kind = kind or spec.backend_kind
    if kind in ("single", "concurrent") and spec.topology != "single":
        raise ValueError(f"backend kind {kind!r} requires the single topology")
    if kind == "cluster" and spec.topology == "single":
        raise ValueError("the cluster backend requires a tiered or cluster topology")
    if kind == "single":
        return SingleNodeBackend(spec)
    if kind == "concurrent":
        return ConcurrentBackend(spec)
    if kind == "cluster":
        return ClusterBackend(spec)
    raise ValueError(f"unknown backend kind {kind!r}")
