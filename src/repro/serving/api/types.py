"""Unified request/response/report shapes of the serving API.

Every backend — one node or a cluster — speaks the same four objects:

* :class:`IngestReport` — what :meth:`~repro.serving.api.backends.Backend.ingest`
  stored for a context and where the replicas landed;
* :class:`ServeRequest` — one query (context, question, arrival time, task,
  SLO), the unit a :meth:`~repro.serving.api.backends.Backend.run` serves;
* :class:`ServeResponse` — the answer plus the *union* of every field any
  backend fills (queueing breakdown, cluster routing, tier, transfer
  accounting).  Fields that do not apply to a backend stay at their neutral
  defaults, so all backends populate the same schema;
* :class:`RunReport` — the aggregate outcome of a run: latency and queueing
  distributions, hit/tier/failover counts, shed requests, arrival-process
  rates, storage economics and per-node summaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ...metrics.cluster import (
    EMPTY_LATENCY_SUMMARY,
    LatencySummary,
    NodeSummary,
    TierState,
    slo_attainment,
    storage_cost_per_request,
    summarize_latencies,
)
from ...llm.quality import TASK_METRICS, GenerationQuality
from ...metrics.system import QueueingTTFTBreakdown
from ...storage.cost import TieredCostModel
from ...storage.tiered import COLD, HOT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .spec import ServingSpec

__all__ = ["IngestReport", "ServeRequest", "ServeResponse", "RunReport"]


def _require_count(name: str, value: object, *, optional: bool = False) -> None:
    """``value`` is an integer of at least 1 (or ``None`` when ``optional``)."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _require_finite(
    name: str, value: object, *, optional: bool = False, allow_zero: bool = False
) -> None:
    """``value`` is a finite positive number (zero too with ``allow_zero``)."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, not {value!r}")
    if not math.isfinite(value) or value < 0 or (value == 0 and not allow_zero):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be a finite {bound} number, not {value!r}")


@dataclass(frozen=True)
class IngestReport:
    """Summary of storing one context's encoded KV cache."""

    context_id: str
    num_tokens: int
    num_chunks: int
    stored_bytes_per_level: Mapping[str, float]
    encode_delay_s: float
    #: Where the replicas landed.
    replica_node_ids: tuple[str, ...] = ()
    replicated_bytes: float = 0.0

    @property
    def total_stored_bytes(self) -> float:
        return float(sum(self.stored_bytes_per_level.values()))


@dataclass(frozen=True)
class ServeRequest:
    """One query submitted to a serving backend.

    ``num_tokens`` is required for contexts that were never ingested (the
    text fallback needs the length); for ingested contexts it is ignored.
    ``session_id`` marks the request as part of a chat session; the fleet's
    sticky dispatch keeps a session's GPU work on one worker.  Its length,
    times and task are validated here: a request that constructs can be served.

    Example
    -------
    >>> request = ServeRequest("doc-1", "what changed?", arrival_s=0.5, session_id="chat-7")
    >>> request.arrival_s
    0.5
    """

    context_id: str
    question: str
    arrival_s: float = 0.0
    num_tokens: int | None = None
    task: str = "qa_accuracy"
    slo_s: float | None = None
    session_id: str | None = None

    def __post_init__(self) -> None:
        if not self.context_id:
            raise ValueError("context_id must be non-empty")
        _require_finite("arrival_s", self.arrival_s, allow_zero=True)
        _require_count("num_tokens", self.num_tokens, optional=True)
        _require_finite("slo_s", self.slo_s, optional=True)
        if self.task not in TASK_METRICS:
            raise ValueError(f"unknown task {self.task!r}; known tasks: {sorted(TASK_METRICS)}")

    @classmethod
    def from_workload(cls, request, slo_s: float | None = None) -> "ServeRequest":
        """Adapt a :class:`~repro.cluster.workload.Request` to the API shape."""
        return cls(
            context_id=request.context_id,
            question=request.question,
            arrival_s=request.arrival_s,
            num_tokens=request.num_tokens,
            slo_s=slo_s,
            session_id=request.session_id,
        )


@dataclass
class ServeResponse:
    """Response to a query against a (possibly cached) context.

    The one response type of the serving stack, built by
    :meth:`~repro.serving.api.backends.Backend.respond` from the routing
    decision and the request's event timeline.

    Example
    -------
    >>> responses = backend.run()  # doctest: +SKIP
    >>> responses[0].ttft_s, responses[0].used_kv_cache  # doctest: +SKIP
    """

    context_id: str
    question: str
    text: str
    quality: GenerationQuality
    ttft: QueueingTTFTBreakdown
    used_kv_cache: bool
    chunk_configs: Sequence[str] = field(default_factory=list)
    transmitted_bytes: float = 0.0
    #: Node that served the KV bitstreams (``"node-0"`` on the single
    #: topology; None on the text path, which no node serves).
    served_by: str | None = None
    #: The primary replica was down and a backup served the request.
    failed_over: bool = False
    #: Nodes the lookup touched before settling, in order.
    attempted_node_ids: tuple[str, ...] = ()
    #: Simulated arrival / first-token times.
    arrival_s: float = 0.0
    finish_s: float = 0.0
    #: Time until the context was loaded: TTFT less the user-prompt stage.
    loading_s: float = 0.0
    #: Tier the serving replica held the context in (None for the text path).
    served_tier: str | None = None
    #: Serialized cold-tier read time inside the TTFT's transfer component.
    tier_transfer_s: float = 0.0
    #: The request was answered off the degraded path: text re-prefill of a
    #: known-but-unreachable context, or a retry-exhausted read at a cheaper
    #: codec level.  (The §7.3 short-context text preference is NOT degraded.)
    degraded: bool = False
    #: Why the response degraded ("node_down", "corruption", "timeout", ...).
    degrade_cause: str | None = None
    #: Retry attempts the replica read consumed before serving.
    retries: int = 0
    #: A hedged read was launched for this request.
    hedged: bool = False

    @property
    def ttft_s(self) -> float:
        return self.ttft.total_s

    @property
    def queueing_s(self) -> float:
        """Time spent waiting for admission, the link queue and the GPU queue."""
        return self.ttft.queueing_s


@dataclass
class RunReport:
    """Aggregate outcome of one serving run, identical across backends.

    Example
    -------
    >>> report = serve(ServingSpec(), requests=requests)  # doctest: +SKIP
    >>> report.ttft.p50, report.slo_attainment  # doctest: +SKIP
    """

    num_requests: int
    ttft: LatencySummary
    #: Queueing-delay distribution.
    queueing: LatencySummary | None
    slo_s: float | None
    slo_attainment: float | None
    kv_served: int
    text_served: int
    failovers: int
    #: Requests the admission policy refused (open-loop driver only).
    shed: int = 0
    hard_failures: int = 0
    ingests: int = 0
    failed_ingests: int = 0
    replication_bytes: float = 0.0
    query_bytes: float = 0.0
    total_evictions: int = 0
    #: Tier traffic (zeros on single-tier topologies).
    hot_served: int = 0
    cold_served: int = 0
    demotions: int = 0
    promotions: int = 0
    hot_bytes: float = 0.0
    cold_bytes: float = 0.0
    #: Appendix-E economics over the run's resident bytes and traffic.
    storage_cost_usd_per_month: float = 0.0
    cost_usd_per_request: float = 0.0
    #: Arrival-process view (meaningful for arrival-driven runs): span of the
    #: arrival process, offered vs served rates.
    duration_s: float = 0.0
    offered_rate_rps: float = 0.0
    throughput_rps: float = 0.0
    responses: list[ServeResponse] = field(default_factory=list)
    node_summaries: list[NodeSummary] = field(default_factory=list)
    spec: "ServingSpec | None" = None
    #: The :class:`~repro.telemetry.trace.Tracer` of a traced run (``None``
    #: on untraced runs); export it with ``repro.telemetry.write_chrome_trace``.
    telemetry: object | None = None
    #: Windowed view of the run (a :class:`~repro.telemetry.timeseries.
    #: TimeSeriesRecorder`); ``None`` when the backend was driven without one.
    timeseries: object | None = None
    #: Fired :class:`~repro.telemetry.slo.Alert` objects, ordered by fire time.
    alerts: list = field(default_factory=list)
    #: Findings of the runtime sanitizers (a
    #: :class:`~repro.simcheck.sanitizers.SimcheckReport`); ``None`` unless
    #: the driver ran with ``simcheck=`` enabled.
    simcheck: object | None = None
    #: Responses served off the degraded path (cheaper level / forced text).
    degraded: int = 0
    #: Text fallbacks of *known* contexts by cause ("node_down", "corruption",
    #: "timeout", "evicted"); the §7.3 short-context preference not included.
    fallback_causes: dict = field(default_factory=dict)
    #: Request indices where the driver closed a simulation segment: the
    #: first arrival at or past a fault event's time.  Queueing state resets
    #: at each boundary — exclude windows spanning one from fine-grained
    #: latency analysis.
    segment_boundaries: tuple = ()
    #: Simulated-clock instants of those boundaries (same order).  Resource
    #: spans from before a boundary may overlap spans after it — backlog does
    #: not carry across segments — so span-level checks partition here.
    segment_boundary_times_s: tuple = ()
    #: :class:`~repro.faults.resilience.ResilienceReport` of a faulted (or
    #: resilience-enabled) run; ``None`` otherwise.
    resilience: object | None = None

    # ------------------------------------------------------------------ ratios
    @property
    def hit_ratio(self) -> float:
        """Fraction of *served* requests answered from the KV cache."""
        served = self.kv_served + self.text_served
        return self.kv_served / served if served else 0.0

    @property
    def hot_hit_ratio(self) -> float:
        served = self.kv_served + self.text_served
        return self.hot_served / served if served else 0.0

    @property
    def cold_hit_ratio(self) -> float:
        served = self.kv_served + self.text_served
        return self.cold_served / served if served else 0.0

    @property
    def shed_ratio(self) -> float:
        """Fraction of offered requests the admission policy refused."""
        return self.shed / self.num_requests if self.num_requests else 0.0

    @property
    def bytes_moved(self) -> float:
        return self.replication_bytes + self.query_bytes

    # ---------------------------------------------------------------- assembly
    @classmethod
    def from_responses(
        cls,
        responses: Sequence[ServeResponse],
        *,
        spec: "ServingSpec | None" = None,
        slo_s: float | None = None,
        shed: int = 0,
        hard_failures: int = 0,
        ingests: int = 0,
        failed_ingests: int = 0,
        replication_bytes: float = 0.0,
        total_evictions: int = 0,
        tier: TierState | None = None,
        node_summaries: Sequence[NodeSummary] = (),
        mean_context_tokens: int = 0,
        min_duration_s: float = 0.0,
    ) -> "RunReport":
        """Assemble the report shared by every backend and the driver.

        ``tier`` carries the *delta* of demotions/promotions over the run plus
        the bytes resident when it ended; the storage-economics fields price
        those resident bytes against the run's traffic (Appendix E prices).
        """
        responses = list(responses)
        ttfts = [r.ttft_s for r in responses]
        kv_served = sum(1 for r in responses if r.used_kv_cache)
        text_served = len(responses) - kv_served
        degraded = sum(1 for r in responses if r.degraded)
        fallback_causes: dict[str, int] = {}
        for r in responses:
            cause = r.degrade_cause
            if cause is not None:
                fallback_causes[cause] = fallback_causes.get(cause, 0) + 1
        hot_served = sum(1 for r in responses if r.served_tier == HOT)
        cold_served = sum(1 for r in responses if r.served_tier == COLD)
        tier = tier or TierState(0, 0, 0.0, 0.0)
        num_requests = len(responses) + shed + hard_failures
        finishes = [r.finish_s for r in responses if r.finish_s > 0.0]
        arrivals = [r.arrival_s for r in responses]
        duration = max(finishes) if finishes else (max(arrivals) if arrivals else 0.0)
        # Shed arrivals leave no response but still stretch the offered span.
        duration = max(duration, min_duration_s)
        cost_per_request = (
            storage_cost_per_request(
                tier.hot_bytes,
                tier.cold_bytes,
                len(responses),
                reprefill_fraction=text_served / len(responses) if responses else 0.0,
                mean_context_tokens=mean_context_tokens,
            )
            if responses
            else 0.0
        )
        return cls(
            num_requests=num_requests,
            ttft=summarize_latencies(ttfts) if ttfts else EMPTY_LATENCY_SUMMARY,
            queueing=(
                summarize_latencies([r.queueing_s for r in responses])
                if responses
                else None
            ),
            slo_s=slo_s,
            slo_attainment=(
                slo_attainment(ttfts, slo_s) if slo_s is not None and ttfts else None
            ),
            kv_served=kv_served,
            text_served=text_served,
            failovers=sum(1 for r in responses if r.failed_over),
            shed=shed,
            hard_failures=hard_failures,
            ingests=ingests,
            failed_ingests=failed_ingests,
            replication_bytes=replication_bytes,
            query_bytes=sum(r.transmitted_bytes for r in responses),
            total_evictions=total_evictions,
            hot_served=hot_served,
            cold_served=cold_served,
            demotions=tier.demotions,
            promotions=tier.promotions,
            hot_bytes=tier.hot_bytes,
            cold_bytes=tier.cold_bytes,
            storage_cost_usd_per_month=TieredCostModel().monthly_storage_cost(
                tier.hot_bytes, tier.cold_bytes
            ),
            cost_usd_per_request=cost_per_request,
            duration_s=duration,
            offered_rate_rps=num_requests / duration if duration > 0 else 0.0,
            throughput_rps=len(responses) / duration if duration > 0 else 0.0,
            responses=responses,
            node_summaries=list(node_summaries),
            spec=spec,
            degraded=degraded,
            fallback_causes=fallback_causes,
        )

    # ------------------------------------------------------------------ output
    def format_table(self) -> str:
        """Human-readable run summary (one block, plus one line per node)."""
        lines = [
            f"requests          {self.num_requests} "
            f"(kv={self.kv_served}, text={self.text_served}, shed={self.shed}, "
            f"failovers={self.failovers}, hard_failures={self.hard_failures})",
            f"hit ratio         {self.hit_ratio:.3f}",
            f"TTFT              p50={self.ttft.p50_s:.3f}s p95={self.ttft.p95_s:.3f}s "
            f"p99={self.ttft.p99_s:.3f}s mean={self.ttft.mean_s:.3f}s",
            f"ingests           {self.ingests} "
            f"({self.replication_bytes / 1e6:.1f} MB replicated, "
            f"{self.failed_ingests} failed)",
            f"evictions         {self.total_evictions}",
            f"bytes moved       {self.bytes_moved / 1e6:.1f} MB "
            f"({self.query_bytes / 1e6:.1f} MB streamed to queries)",
        ]
        if self.duration_s > 0:
            lines.append(
                f"arrivals          {self.duration_s:.2f}s span, "
                f"offered {self.offered_rate_rps:.2f} req/s, "
                f"served {self.throughput_rps:.2f} req/s"
            )
        if self.queueing is not None and self.queueing.max_s > 0:
            lines.append(
                f"queueing delay    p50={self.queueing.p50_s:.3f}s "
                f"p95={self.queueing.p95_s:.3f}s mean={self.queueing.mean_s:.3f}s"
            )
        if self.cold_served or self.demotions or self.promotions or self.cold_bytes:
            lines.append(
                f"tiers             hot={self.hot_served} cold={self.cold_served} "
                f"demotions={self.demotions} promotions={self.promotions} "
                f"(hot {self.hot_bytes / 1e6:.1f} MB, cold {self.cold_bytes / 1e6:.1f} MB)"
            )
        if self.hot_bytes or self.cold_bytes:
            lines.append(
                f"cost              ${self.storage_cost_usd_per_month:.4f}/month stored, "
                f"${self.cost_usd_per_request:.6f}/request"
            )
        if self.degraded or self.fallback_causes:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(self.fallback_causes.items())
            )
            lines.append(
                f"degraded          {self.degraded}"
                + (f" (causes: {causes})" if causes else "")
            )
        if self.segment_boundaries:
            boundaries = ", ".join(str(index) for index in self.segment_boundaries)
            lines.append(f"segments          reset at request indices {boundaries}")
        if self.slo_s is not None and self.slo_attainment is not None:
            lines.append(
                f"SLO               {self.slo_attainment * 100.0:.1f}% "
                f"within {self.slo_s:.2f}s"
            )
        if self.resilience is not None:
            lines.append(self.resilience.format_table())
        if self.timeseries is not None:
            windows = self.timeseries.windows()
            if windows:
                lines.append(
                    f"timeseries        {len(windows)} windows of "
                    f"{windows[0].width_s:g}s"
                )
        if self.alerts:
            for alert in self.alerts:
                resolved = (
                    f"resolved {alert.resolved_at_s:.2f}s"
                    if alert.resolved_at_s is not None
                    else "still active"
                )
                lines.append(
                    f"alert             [{alert.severity}] {alert.name} "
                    f"fired {alert.fired_at_s:.2f}s, {resolved}"
                )
        for node in self.node_summaries:
            state = "up" if node.up else "DOWN"
            lines.append(
                f"  {node.node_id:<10} {state:<5} routed={node.requests_routed:<5} "
                f"hit_ratio={node.hit_ratio:.3f} evictions={node.evictions:<4} "
                f"resident={node.contexts_resident} ({node.stored_bytes / 1e6:.1f} MB)"
            )
        return "\n".join(lines)
