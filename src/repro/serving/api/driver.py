"""Arrival-driven open-loop serving and the ``serve()`` convenience.

The :class:`Driver` replays the workload generator's **true Poisson arrival
process**: ingest events happen at first touch in arrival order, admitted
queries enter one continuous event simulation with their absolute arrival
times, and queueing emerges from the schedule — there are no fixed-size waves
whose boundaries would drain the system and hide steady-state queueing.

Admission is pluggable: an :class:`AdmissionPolicy` sees every arrival and
may shed it (open-loop load shedding); shed requests are counted in the
:class:`~repro.serving.api.types.RunReport` and never enter the simulation.

Topology events (node failures/recoveries) split the run into segments: each
segment is one continuous simulation, and the event applies at the boundary.
Cross-segment queueing state resets — exactly the semantics of a node dying
at that point in the arrival stream.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Iterable, Mapping, Protocol, Sequence

from ...core.encoder import FittedCodec
from ...faults import FaultInjector, FaultSchedule, ResilienceManager, ResilienceReport
from ...storage.kv_store import CapacityError
from ...telemetry.slo import SLOObjective
from ...telemetry.trace import Tracer
from .backends import Backend, build_backend
from .spec import ServingSpec
from .types import RunReport, ServeRequest

__all__ = [
    "AdmissionPolicy",
    "AdmitAll",
    "TokenBucketAdmission",
    "ConcurrencyLimitAdmission",
    "Driver",
    "serve",
]


class AdmissionPolicy(Protocol):
    """Decides, per arrival, whether a request is served or shed."""

    def admit(self, request: ServeRequest) -> bool:
        """True to serve the request, False to shed it.

        Called once per arrival, in arrival order; policies may keep state
        keyed on ``request.arrival_s`` (the clock only moves forward within
        one run).  A workload generator restarts its arrival clock on every
        :meth:`Driver.run`, so stateful policies should also implement
        ``reset()`` — the driver calls it at the start of each run.
        """
        ...


class AdmitAll:
    """The default policy: every arrival is served."""

    def admit(self, request: ServeRequest) -> bool:
        return True


class TokenBucketAdmission:
    """Classic token-bucket shedding: sustained rate + burst headroom.

    The bucket refills at ``rate_per_s`` and holds at most ``burst`` tokens;
    an arrival that finds the bucket empty is shed.  This bounds the rate the
    backend sees regardless of the offered load.
    """

    def __init__(self, rate_per_s: float, burst: int = 1) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = float(burst)
        self._last_s = 0.0

    def reset(self) -> None:
        """Start a fresh run: full bucket, arrival clock back at zero."""
        self._tokens = float(self.burst)
        self._last_s = 0.0

    def admit(self, request: ServeRequest) -> bool:
        elapsed = max(request.arrival_s - self._last_s, 0.0)
        self._last_s = request.arrival_s
        self._tokens = min(self._tokens + elapsed * self.rate_per_s, float(self.burst))
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class ConcurrencyLimitAdmission:
    """Shed arrivals that would exceed a modeled in-flight limit.

    Open-loop drivers do not know true completion times up front, so the
    policy models each admitted request as busy for ``est_service_s`` and
    sheds an arrival when ``max_inflight`` modeled requests are still busy.
    """

    def __init__(self, max_inflight: int, est_service_s: float) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if est_service_s <= 0:
            raise ValueError("est_service_s must be positive")
        self.max_inflight = max_inflight
        self.est_service_s = est_service_s
        self._departures: list[float] = []

    def reset(self) -> None:
        """Start a fresh run: no modeled requests in flight.

        Without this, departures timed on a previous run's (absolute) clock
        would pin every slot busy forever once the next run's arrival clock
        restarts at zero.
        """
        self._departures = []

    def admit(self, request: ServeRequest) -> bool:
        now = request.arrival_s
        self._departures = [d for d in self._departures if d > now]
        if len(self._departures) >= self.max_inflight:
            return False
        self._departures.append(now + self.est_service_s)
        return True


class Driver:
    """Replays an arrival process end to end through any backend.

    Parameters
    ----------
    backend:
        A built :class:`~repro.serving.api.backends.Backend`, or a
        :class:`~repro.serving.api.spec.ServingSpec` to build one from.
    workload:
        A :class:`~repro.cluster.workload.WorkloadGenerator` (its
        ``iter_requests`` supplies the arrival process) or any iterable of
        :class:`ServeRequest` / workload ``Request`` objects.
    admission:
        Pluggable shedding hook; defaults to :class:`AdmitAll`.
    reingest_on_miss:
        Re-ingest a known context that was served from text because every
        replica lost it, so placement keeps following popularity across
        :meth:`run` calls.
    node_failures / node_recoveries:
        Request index -> node id, applied at that arrival.  Each event closes
        the current simulation segment.  The single topology's one node is
        ``"node-0"``; with it down, queries degrade to text.
    faults:
        Optional :class:`~repro.faults.FaultSchedule`.  Its compiled events
        (node crashes, link degradation, straggler GPUs, corrupted replicas)
        are applied on the simulated clock: at the first arrival past an
        event's time the driver closes the current segment and mutates the
        backend in place.  Fault and recovery instants land on the tracer's
        ``"faults"`` track, per-fault MTTR and the resilience counters ride
        on ``report.resilience``.  ``None`` (default) keeps the fault-free
        fast path byte-identical.
    max_batch:
        Optional cap on requests per simulation segment.  ``None`` (default)
        runs the whole stream as one continuous open-loop simulation.
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  When given, it is
        wired through the backend (engines, stores, simulated resources), the
        driver adds ingest/encode spans and shed instants, and the finished
        :class:`RunReport` carries it as ``report.telemetry``.  ``None`` (the
        default) keeps the untraced fast path.
    window_s:
        Tumbling-window width of ``report.timeseries``; ``None`` (default)
        picks a 1/2/5-stepped width giving roughly 60 windows over the run.
    slos:
        Declarative :class:`~repro.telemetry.slo.SLOObjective` list; the
        report's burn-rate :class:`~repro.telemetry.slo.Alert` objects land in
        ``report.alerts`` (structural detectors run either way).
    simcheck:
        Runtime sanitizers (:mod:`repro.simcheck`).  ``True`` or a
        :class:`~repro.simcheck.sanitizers.SimcheckConfig` enables them for
        this driver: event clocks are replaced with recording
        :class:`~repro.simcheck.sanitizers.ClockSanitizer` instances and
        conservation invariants are validated on the finished run (findings
        land on ``report.simcheck``; strict configs raise
        :class:`~repro.simcheck.sanitizers.SimcheckError`).  ``False`` opts
        out; ``None`` (default) follows the process-wide default
        (:mod:`repro.simcheck.runtime` — the test-suite fixture and the
        ``REPRO_SIMCHECK`` environment variable).

    Notes
    -----
    On capacity-bounded deployments (``spec.max_bytes_per_node`` set) every
    first-touch ingest is also a segment boundary: pending requests are
    served against the store state current at *their* arrival before the
    ingest may evict anything they were routed to.  Unbounded stores only
    grow, so there the run stays one continuous simulation end to end.

    Example
    -------
    >>> spec = ServingSpec()
    >>> driver = Driver(spec, workload=WorkloadGenerator(num_contexts=20))
    >>> report = driver.run(num_requests=100)  # doctest: +SKIP
    """

    def __init__(
        self,
        backend: Backend | ServingSpec,
        workload=None,
        *,
        admission: AdmissionPolicy | None = None,
        reingest_on_miss: bool = True,
        node_failures: Mapping[int, str] | None = None,
        node_recoveries: Mapping[int, str] | None = None,
        faults: FaultSchedule | None = None,
        max_batch: int | None = None,
        tracer: Tracer | None = None,
        window_s: float | None = None,
        slos: Sequence[SLOObjective] = (),
        simcheck=None,
    ) -> None:
        if isinstance(backend, ServingSpec):
            backend = build_backend(backend)
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.backend = backend
        self.tracer = tracer
        self.workload = workload
        self.admission = admission or AdmitAll()
        self.reingest_on_miss = reingest_on_miss
        self.node_failures = dict(node_failures or {})
        self.node_recoveries = dict(node_recoveries or {})
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise TypeError("faults must be a FaultSchedule (or None)")
        self.faults = faults
        self.max_batch = max_batch
        self.window_s = window_s
        self.slos = tuple(slos)
        self.simcheck = simcheck
        # A node id the backend does not have fails here, not mid-run.
        cluster = backend.engine.cluster
        for node_id in (*self.node_failures.values(), *self.node_recoveries.values()):
            cluster.node(node_id)
        if faults is not None:
            FaultInjector.validate(faults, cluster)
        # ``None`` detaches whatever an earlier driver of this backend attached.
        backend.attach_tracer(tracer)
        #: Contexts ever ingested — persists across run() calls.
        self._known: set[str] = set()
        self._known_tokens: dict[str, int] = {}

    # --------------------------------------------------------------- requests
    def _requests(self, num_requests: int | None) -> list[ServeRequest]:
        spec = self.backend.spec
        slo = spec.slo_s if spec.adaptive else None
        if self.workload is None:
            raise ValueError("no workload to drive")
        if hasattr(self.workload, "iter_requests"):
            if num_requests is None:
                raise ValueError("num_requests is required with a workload generator")
            source: Iterable = self.workload.iter_requests(num_requests)
        else:
            source = self.workload
        requests = []
        for item in source:
            if isinstance(item, ServeRequest):
                if item.slo_s is None and slo is not None:
                    item = replace(item, slo_s=slo)
                requests.append(item)
            else:
                requests.append(ServeRequest.from_workload(item, slo_s=slo))
        if num_requests is not None:
            requests = requests[:num_requests]
        return requests

    # --------------------------------------------------------------------- run
    def run(self, num_requests: int | None = None) -> RunReport:
        """Serve the arrival stream open-loop and report the outcome."""
        backend = self.backend
        requests = self._requests(num_requests)
        reset = getattr(self.admission, "reset", None)
        if callable(reset):
            reset()
        tracer = self.tracer
        monitor = self._simcheck_monitor()
        backend.attach_simcheck(monitor)
        evictions_before = backend.total_evictions()
        tier_before = backend.engine.tier_counters()
        # Under capacity pressure an ingest can evict a context a pending
        # request was routed to at *its* arrival: serve what has already
        # arrived before mutating the stores.  Unbounded stores only ever
        # grow, so there the whole stream stays one continuous simulation.
        capacity = backend.spec.max_bytes_per_node
        ingest_is_barrier = capacity is not None

        cluster = backend.engine.cluster
        manager: ResilienceManager | None = backend.resilience
        injector: FaultInjector | None = None
        if self.faults is not None:
            if manager is None:
                # A schedule without a spec-level policy still needs fault
                # bookkeeping (MTTR, corruption clears): a bare manager.
                manager = ResilienceManager(None, seed=self.faults.seed)
                backend.resilience = manager
                if cluster.resilience is None:
                    cluster.resilience = manager
            injector = FaultInjector(self.faults, backend, manager, tracer=tracer)
        counters_before = manager.counters() if manager is not None else None
        repair_enabled = (
            manager is not None and manager.policy is not None and manager.policy.repair
        )
        segment_boundaries: list[int] = []
        segment_times: list[float] = []

        ingests = 0
        failed_ingests = 0
        replication_bytes = 0.0
        shed = 0
        shed_times: list[float] = []
        hard_failures = 0
        responses = []
        pending: list[ServeRequest] = []

        def flush() -> None:
            nonlocal hard_failures
            if not pending:
                return
            batch, pending[:] = list(pending), []
            for request in batch:
                backend.submit(request)
            try:
                responses.extend(backend.run())
            except Exception:
                # The continuous segment failed wholesale.  Re-serve it one
                # request at a time so a single bad request costs itself, not
                # its segment-mates.
                for request in batch:
                    backend.submit(request)
                    try:
                        responses.extend(backend.run())
                    except Exception:
                        hard_failures += 1

        for index, request in enumerate(requests):
            if tracer is not None:
                tracer.advance_to(request.arrival_s)
            if manager is not None:
                # Breaker timers, the hedge window and the repair queue all
                # run on arrival time; repairs become readable here.
                manager.now = max(manager.now, request.arrival_s)
                if repair_enabled:
                    manager.sweep(cluster, request.arrival_s, tracer)
            fault_due = injector is not None and injector.due(request.arrival_s)
            if fault_due or index in self.node_failures or index in self.node_recoveries:
                flush()
                if not segment_boundaries:
                    warnings.warn(
                        "a topology/fault event closes the current simulation "
                        "segment: queued link and GPU backlog does not carry "
                        "across the boundary (indices are recorded on "
                        "RunReport.segment_boundaries)",
                        stacklevel=2,
                    )
                segment_boundaries.append(index)
                segment_times.append(request.arrival_s)
                if fault_due:
                    injector.apply_due(request.arrival_s)
                if index in self.node_failures:
                    backend.mark_down(self.node_failures[index])
                    if tracer is not None:
                        tracer.instant(
                            "node down",
                            track="cluster",
                            at_s=request.arrival_s,
                            category="cluster",
                            node=self.node_failures[index],
                        )
                if index in self.node_recoveries:
                    backend.mark_up(self.node_recoveries[index])
                    if tracer is not None:
                        tracer.instant(
                            "node up",
                            track="cluster",
                            at_s=request.arrival_s,
                            category="cluster",
                            node=self.node_recoveries[index],
                        )
            if not self.admission.admit(request):
                shed += 1
                shed_times.append(request.arrival_s)
                if tracer is not None:
                    tracer.instant(
                        "shed",
                        track="admission",
                        at_s=request.arrival_s,
                        category="admission",
                        context_id=request.context_id,
                    )
                    tracer.metrics.counter(
                        "requests_shed", "arrivals refused by the admission policy"
                    ).inc()
                continue
            if request.context_id not in self._known and request.num_tokens is not None:
                if ingest_is_barrier:
                    flush()
                try:
                    report = backend.ingest(request.context_id, request.num_tokens)
                except CapacityError:
                    failed_ingests += 1
                    if tracer is not None:
                        tracer.instant(
                            "failed ingest",
                            track="ingest",
                            at_s=request.arrival_s,
                            category="ingest",
                            context_id=request.context_id,
                        )
                else:
                    self._known.add(request.context_id)
                    self._known_tokens[request.context_id] = request.num_tokens
                    ingests += 1
                    replication_bytes += report.replicated_bytes
                    if tracer is not None:
                        tracer.span(
                            "ingest/encode",
                            track="ingest",
                            start_s=request.arrival_s,
                            dur_s=report.encode_delay_s,
                            category="ingest",
                            context_id=request.context_id,
                            stored_bytes=report.total_stored_bytes,
                        )
                        tracer.metrics.counter(
                            "ingests", "contexts encoded and stored"
                        ).inc()
                        tracer.metrics.counter(
                            "ingested_bytes", "bytes written at ingest"
                        ).inc(report.total_stored_bytes)
            pending.append(request)
            if self.max_batch is not None and len(pending) >= self.max_batch:
                flush()
        flush()

        if injector is not None:
            # Events past the last arrival still happen (and clear MTTR).
            injector.drain()
        if manager is not None:
            manager.drain(cluster, manager.now, tracer)
        fault_outcomes = injector.finalize() if injector is not None else ()

        if self.reingest_on_miss:
            ingests_, failed_, bytes_ = self._reingest_missed(responses)
            ingests += ingests_
            failed_ingests += failed_
            replication_bytes += bytes_

        served_tokens = [
            self._known_tokens[r.context_id]
            for r in responses
            if r.context_id in self._known_tokens
        ]
        report = backend.report(
            responses,
            shed=shed,
            hard_failures=hard_failures,
            ingests=ingests,
            failed_ingests=failed_ingests,
            replication_bytes=replication_bytes,
            evictions_before=evictions_before,
            tier_before=tier_before,
            mean_context_tokens=(
                int(sum(served_tokens) / len(served_tokens)) if served_tokens else 0
            ),
            # Shed/failed arrivals are part of the offered process even though
            # no response records their times.
            min_duration_s=max((r.arrival_s for r in requests), default=0.0),
            shed_times=shed_times,
            window_s=self.window_s,
            objectives=self.slos,
        )
        report.segment_boundaries = tuple(segment_boundaries)
        report.segment_boundary_times_s = tuple(segment_times)
        if manager is not None:
            counts = manager.counters()
            report.resilience = ResilienceReport(
                offered=len(requests),
                served=len(responses),
                degraded=report.degraded,
                shed=shed,
                failed=hard_failures,
                faults=fault_outcomes,
                **{key: counts[key] - counters_before[key] for key in counts},
            )
        report.telemetry = tracer
        if monitor is not None:
            monitor.finalize(report, backend=backend, tracer=tracer)
        return report

    def _simcheck_monitor(self):
        """Resolve the ``simcheck=`` setting into a monitor (or ``None``).

        Resolution happens per :meth:`run`, so a driver built before the
        test-suite fixture enabled the process default still gets sanitized.
        """
        setting = self.simcheck
        if setting is False:
            return None
        from ...simcheck.runtime import default_config
        from ...simcheck.sanitizers import SimcheckConfig, SimcheckMonitor

        if setting is None or setting is True:
            config = default_config() if setting is None else SimcheckConfig()
        elif isinstance(setting, SimcheckConfig):
            config = setting
        else:
            raise TypeError(
                "simcheck must be None, a bool, or a SimcheckConfig; "
                f"got {setting!r}"
            )
        return SimcheckMonitor(config) if config is not None else None

    def _reingest_missed(self, responses) -> tuple[int, int, float]:
        """Re-ingest known contexts that degraded to text (capacity churn)."""
        ingests = failed = 0
        replication_bytes = 0.0
        seen: set[str] = set()
        for response in responses:
            context_id = response.context_id
            if (
                response.used_kv_cache
                or context_id in seen
                or context_id not in self._known_tokens
                or context_id in self.backend.engine.cluster
            ):
                continue
            seen.add(context_id)
            try:
                report = self.backend.ingest(
                    context_id, self._known_tokens[context_id]
                )
            except CapacityError:
                failed += 1
            else:
                ingests += 1
                replication_bytes += report.replicated_bytes
        return ingests, failed, replication_bytes


def serve(
    spec: ServingSpec,
    requests: Sequence[ServeRequest] | None = None,
    *,
    workload=None,
    num_requests: int | None = None,
    admission: AdmissionPolicy | None = None,
    tracer: Tracer | None = None,
    codec: FittedCodec | None = None,
    **driver_kwargs,
) -> RunReport:
    """One-call serving: build the spec's backend, drive a workload, report.

    Pass either ``requests`` (explicit :class:`ServeRequest` objects) or
    ``workload`` (+ ``num_requests``) for a generated arrival process.
    A ``tracer`` records the run's full telemetry and rides back on
    ``report.telemetry``.  ``codec`` hands the backend an explicit offline
    profile in place of the process-wide one (see :func:`build_backend`).

    Example
    -------
    >>> report = serve(
    ...     ServingSpec(),
    ...     workload=WorkloadGenerator(num_contexts=20),
    ...     num_requests=100,
    ... )  # doctest: +SKIP
    >>> report.ttft.p95  # doctest: +SKIP
    """
    if (requests is None) == (workload is None):
        raise ValueError("pass exactly one of requests= or workload=")
    built = build_backend(spec, codec=codec)
    driver = Driver(
        built,
        workload if workload is not None else list(requests),
        admission=admission,
        tracer=tracer,
        **driver_kwargs,
    )
    return driver.run(num_requests)
