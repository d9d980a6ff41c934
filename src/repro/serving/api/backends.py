"""The execution backend behind the unified serving API.

A :class:`Backend` turns a :class:`~repro.serving.api.spec.ServingSpec` into a
running serving stack and speaks the unified request/response shapes
(``ingest`` / ``submit`` / ``run`` / ``report``, returning
:class:`~repro.serving.api.types.ServeResponse` objects with one schema).  It
has two parts:

* the **engine** — the one
  :class:`~repro.serving.engine.ContextLoadingEngine` built from the spec,
  here and nowhere else — owns the store topology (a sharded, replicated,
  optionally tiered store of one or more nodes) and with it routing
  (``resolve``) and every state tap (``cluster``, ``stores``,
  ``tier_counters``);
* the **executor** is :func:`~repro.serving.concurrent.engine.serve_batch`:
  every :meth:`Backend.run` plays its staged requests on one event
  simulation built from the spec, so requests that overlap in time contend
  for the links and the GPU whatever the spec declares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...core.encoder import FittedCodec
from ...metrics.cluster import TierState
from ...telemetry.slo import AlertEngine, SLOObjective
from ...telemetry.timeseries import TimeSeriesRecorder, auto_window_s
from ..concurrent.engine import serve_batch
from ..concurrent.simulator import ConcurrentLoadSimulator
from ..engine import ContextLoadingEngine
from ..pipeline import IngestReport
from .spec import ServingSpec
from .types import RunReport, ServeRequest, ServeResponse

if TYPE_CHECKING:  # pragma: no cover - types only
    from ...faults.resilience import ResilienceManager
    from ...telemetry.trace import Tracer

__all__ = ["Backend", "build_backend"]


class Backend:
    """One engine played on the event executor, speaking the unified serving API.

    Parameters
    ----------
    spec:
        The deployment: the engine is built from it, and the event
        executor's settings (batching, admission, GPU fleet) are read from it
        at every :meth:`run`.
    codec:
        The offline profile to encode with; omitted, the engine takes the
        one :func:`~repro.serving.engine.profile_codec` keeps for the spec's
        model and codec configuration, so every engine of one model in a
        process shares a single profile.
    """

    def __init__(self, spec: ServingSpec, codec: FittedCodec | None = None) -> None:
        self.spec = spec
        self.engine = ContextLoadingEngine(spec, codec)
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
            self.engine.cluster.resilience = self.resilience
        self._staged: list[ServeRequest] = []

    # --------------------------------------------------------------- telemetry
    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire a tracer through the executor and the engine's stores (``None`` detaches).

        The simulator of the last run keeps its statistics but no tracer.
        """
        self.tracer = tracer
        if self.last_sim is not None:
            self.last_sim.detach_tracer()
        self.engine.cluster.tracer = tracer
        for label, store in self.engine.stores().items():
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
    def report(
        self,
        responses: Sequence[ServeResponse],
        *,
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
            slo_s=self.spec.slo_s,
            shed=shed,
            hard_failures=hard_failures,
            ingests=ingests,
            failed_ingests=failed_ingests,
            replication_bytes=replication_bytes,
            total_evictions=engine.cluster.total_evictions() - evictions_before,
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
    >>> len(backend.engine.stores())
    4
    """
    return Backend(spec, codec)
