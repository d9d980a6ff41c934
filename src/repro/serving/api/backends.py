"""The execution backend behind the unified serving API.

A :class:`Backend` turns a :class:`~repro.serving.api.spec.ServingSpec` into a
running serving stack and speaks the unified request/response shapes
(``ingest`` / ``submit`` / ``run`` / ``report``, returning
:class:`~repro.serving.api.types.ServeResponse` objects with one schema).  It
has two parts:

* the **engine** (:func:`build_engine`) owns the store topology — one
  :class:`~repro.serving.engine.ContextLoadingEngine` over a sharded,
  replicated, optionally tiered store of one or more nodes — and with it
  routing (``resolve``) and every state tap (``cluster``, ``stores``,
  ``tier_counters``);
* the **executor** is :func:`~repro.serving.concurrent.engine.serve_batch`:
  every :meth:`Backend.run` plays its staged requests on one event
  simulation built from the spec, so requests that overlap in time contend
  for the links and the GPU whatever the spec declares.
"""

from __future__ import annotations

from typing import Sequence

from ...core.encoder import FittedCodec
from ...faults.resilience import ResilienceManager
from ...metrics.cluster import TierState
from ...network.bandwidth import ConstantTrace, gbps
from ...network.link import NetworkLink
from ...telemetry.slo import AlertEngine, SLOObjective
from ...telemetry.timeseries import TimeSeriesRecorder, auto_window_s
from ...telemetry.trace import Tracer
from ..concurrent.engine import serve_batch
from ..concurrent.simulator import ConcurrentLoadSimulator
from ..engine import ContextLoadingEngine
from ..pipeline import IngestReport
from .spec import ServingSpec
from .types import RunReport, ServeRequest, ServeResponse

__all__ = ["Backend", "build_engine", "build_backend"]


def _constant_link(bandwidth_gbps: float) -> NetworkLink:
    return NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))


def build_engine(spec: ServingSpec, codec: FittedCodec | None = None) -> ContextLoadingEngine:
    """The engine a spec declares; its single topology is one node on the serving link.

    ``codec`` is the offline profile to encode with; omitted, the engine
    takes the one :func:`~repro.serving.engine.profile_codec` keeps for the
    spec's model and codec configuration, so every engine of one model in a
    process shares a single profile.
    """
    if spec.topology == "single":
        # Text fallbacks and KV reads share the one serving link.
        link = spec.link or _constant_link(spec.bandwidth_gbps)
        node_links = None
    else:
        link = (
            _constant_link(spec.text_bandwidth_gbps)
            if spec.text_bandwidth_gbps is not None
            else None
        )
        speeds = spec.node_bandwidths_gbps or (spec.bandwidth_gbps,) * spec.num_nodes
        node_links = [_constant_link(speed) for speed in speeds]
    return ContextLoadingEngine(
        spec.model,
        link,
        config=spec.resolved_config(),
        gpu=spec.gpu,
        base_quality=dict(spec.base_quality) if spec.base_quality is not None else None,
        node_links=node_links,
        replication_factor=spec.replication,
        max_bytes_per_node=spec.max_bytes_per_node,
        eviction_policy=spec.eviction_policy,
        cold_bytes_per_node=spec.cold_bytes_per_node,
        # Read only by nodes that have a cold tier.
        tier_links=[_constant_link(spec.tier_bandwidth_gbps) for _ in range(spec.num_nodes)],
        placement=spec.placement,
        codec=codec,
    )


class Backend:
    """One engine played on the event executor, speaking the unified serving API.

    Parameters
    ----------
    spec:
        The deployment; the event executor's settings (batching, admission,
        GPU fleet) are read from it at every :meth:`run`.
    engine:
        The engine to serve through; built from ``spec`` when omitted.
    """

    def __init__(self, spec: ServingSpec, engine: ContextLoadingEngine | None = None) -> None:
        self.spec = spec
        self.engine = engine if engine is not None else build_engine(spec)
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
            self.resilience = ResilienceManager(spec.resilience)
            self.engine.cluster.resilience = self.resilience
        self._staged: list[ServeRequest] = []

    # --------------------------------------------------------------- telemetry
    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire a tracer through the executor and the engine's stores (``None`` detaches)."""
        self.tracer = tracer
        self.engine.cluster.tracer = tracer
        for label, store in self.engine.stores().items():
            # A TieredKVStore wraps an inner hot store that emits its own events.
            for traced in (store, getattr(store, "hot", None)):
                if traced is not None:
                    traced.tracer = tracer
                    traced.trace_track = f"storage:{label}"

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

    # ---------------------------------------------------------------- topology
    def mark_down(self, node_id: str) -> None:
        self.engine.cluster.mark_down(node_id)

    def mark_up(self, node_id: str) -> None:
        self.engine.cluster.mark_up(node_id)

    def replicas_for(self, context_id: str) -> list[str]:
        """Node ids holding replicas of a context."""
        return list(self.engine.cluster.replicas_for(context_id))

    # ------------------------------------------------------------------- serve
    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        """Prefill + encode + store a context (offline path, not simulated)."""
        return self.engine.ingest(context_id, num_tokens)

    def submit(self, request: ServeRequest) -> int:
        """Stage a request; served on the next :meth:`run`."""
        self._staged.append(request)
        return len(self._staged) - 1

    def run(self) -> list[ServeResponse]:
        """Serve all staged requests; responses in staging order."""
        if not self._staged:
            raise ValueError("no requests submitted")
        staged, self._staged = self._staged, []
        spec = self.spec
        sim = self.last_sim = ConcurrentLoadSimulator(
            max_decode_batch=spec.max_decode_batch,
            batch_overhead=spec.batch_overhead,
            admission_limit=spec.admission_limit,
            gpu_workers=spec.gpu_workers,
            dispatch_policy=spec.dispatch_policy,
            autoscale=spec.autoscale,
            tracer=self.tracer,
            clock_factory=self.clock_factory,
        )
        return serve_batch(self.engine, staged, sim)

    # ------------------------------------------------------------------ report
    def total_evictions(self) -> int:
        return self.engine.cluster.total_evictions()

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
    ) -> RunReport:
        """Unified report; ``*_before`` snapshots make the counters per-run."""
        engine = self.engine
        tier_now = engine.tier_counters()
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
            node_summaries=engine.cluster.node_summaries(),
            mean_context_tokens=mean_context_tokens,
            min_duration_s=min_duration_s,
        )
        if responses or shed_times:
            recorder = TimeSeriesRecorder.from_run(
                responses,
                window_s=window_s or auto_window_s(report.duration_s),
                shed_times=shed_times,
                tracer=self.tracer,
                duration_s=report.duration_s,
            )
            report.timeseries = recorder
            report.alerts = AlertEngine(objectives).evaluate(recorder.windows())
        return report


def build_backend(spec: ServingSpec, *, codec: FittedCodec | None = None) -> Backend:
    """Build the execution backend a spec declares.

    The first backend of a model in a process profiles its codec, which is
    most of the cost; later ones reuse that profile through
    :func:`~repro.serving.engine.profile_codec` and build in under a
    millisecond.  ``codec=`` injects a profile explicitly (``ValueError`` if
    it was profiled for another model, model shape or codec configuration).

    Example
    -------
    >>> spec = ServingSpec(topology="cluster", num_nodes=4, gpu_workers=2)
    >>> backend = build_backend(spec)
    >>> len(backend.engine.stores())
    4
    """
    return Backend(spec, build_engine(spec, codec))
