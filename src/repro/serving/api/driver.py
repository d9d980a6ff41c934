"""Arrival-driven open-loop serving and the ``serve()`` convenience.

The :class:`Driver` replays the workload generator's **true Poisson arrival
process**: ingest events happen at first touch in arrival order, admitted
queries enter one continuous event simulation with their absolute arrival
times, and queueing emerges from the schedule — there are no fixed-size waves
whose boundaries would drain the system and hide steady-state queueing.

An optional :class:`TokenBucketAdmission` sees every arrival and may shed it
(open-loop load shedding); shed requests are counted in the
:class:`~repro.serving.api.types.RunReport` and never enter the simulation.

A :class:`~repro.faults.FaultSchedule` is the one way to change a run's
topology: node crashes and recoveries, link degradation and corrupted
replicas are events on the simulated clock.  The first arrival at or past an
event's time closes the current segment (one continuous simulation), and the
event applies at that boundary, before the arrival is routed.  Cross-segment
queueing state resets — exactly the semantics of a node dying at that point
in the arrival stream.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Sequence

from ...core.encoder import FittedCodec
from ...metrics.cluster import TierState
from ...storage.kv_store import CapacityError
from ...telemetry.slo import AlertEngine
from ...telemetry.timeseries import TimeSeriesRecorder, auto_window_s
from .backends import Backend, build_backend
from .spec import ServingSpec
from .types import RunReport, ServeRequest

if TYPE_CHECKING:  # pragma: no cover - types only
    from ...faults import FaultInjector, FaultSchedule, ResilienceManager
    from ...telemetry.slo import SLOObjective
    from ...telemetry.trace import Tracer

__all__ = [
    "TokenBucketAdmission",
    "Driver",
    "serve",
]


class TokenBucketAdmission:
    """Classic token-bucket shedding: sustained rate + burst headroom.

    The bucket refills at ``rate_per_s`` and holds at most ``burst`` tokens;
    an arrival that finds the bucket empty is shed.  This bounds the rate the
    backend sees regardless of the offered load.  :meth:`admit` is called once
    per arrival, in arrival order; the driver calls :meth:`reset` at the start
    of every run, because a workload generator restarts its arrival clock.
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


class Driver:
    """Replays an arrival process end to end through any backend.

    Parameters
    ----------
    backend:
        A built :class:`~repro.serving.api.backends.Backend`
        (:func:`~repro.serving.api.backends.build_backend`; :func:`serve`
        builds one from a spec and drives it).
    workload:
        A :class:`~repro.cluster.workload.WorkloadGenerator` (its
        ``iter_requests`` supplies the arrival process) or any iterable of
        :class:`ServeRequest` / workload ``Request`` objects.
    admission:
        Optional :class:`TokenBucketAdmission` shedding arrivals; ``None``
        (default) serves every arrival.
    faults:
        Optional :class:`~repro.faults.FaultSchedule`, the one way to change
        the topology mid-run.  Its compiled events (node crashes and
        recoveries, link degradation, corrupted replicas) are applied on the
        simulated clock: at the first arrival at or past an event's time the
        driver closes the current segment and mutates the backend in place,
        so that arrival is already routed around a crashed node.  The single
        topology's one node is ``"node-0"``; with it down, queries degrade to
        text.  Fault and recovery instants land on the tracer's ``"faults"``
        track, per-fault MTTR and the resilience counters ride on
        ``report.resilience``.  ``None`` (default) keeps the fault-free fast
        path byte-identical.
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  When given, it is
        wired through the backend (stores, simulated resources), the
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
    A request for a context the backend never ingested that carries no
    ``num_tokens`` has no path to be served on: it counts as a hard failure
    at its arrival and is never routed.

    After the last response, a known context that was served from text
    because every replica lost it is re-ingested, so placement keeps
    following popularity across :meth:`run` calls.

    On capacity-bounded deployments (``spec.max_bytes_per_node`` set) every
    first-touch ingest is also a segment boundary: pending requests are
    served against the store state current at *their* arrival before the
    ingest may evict anything they were routed to.  Unbounded stores only
    grow, so there the run stays one continuous simulation end to end.

    Example
    -------
    >>> from repro.cluster.workload import WorkloadGenerator
    >>> backend = build_backend(ServingSpec())
    >>> driver = Driver(backend, workload=WorkloadGenerator(num_contexts=20))
    >>> report = driver.run(num_requests=100)  # doctest: +SKIP
    """

    def __init__(
        self,
        backend: Backend,
        workload=None,
        *,
        admission: TokenBucketAdmission | None = None,
        faults: FaultSchedule | None = None,
        tracer: Tracer | None = None,
        window_s: float | None = None,
        slos: Sequence[SLOObjective] = (),
        simcheck=None,
    ) -> None:
        self.backend = backend
        self.tracer = tracer
        self.workload = workload
        self.admission = admission
        if faults is not None:
            # Fault injection loads only for a run that asks for it.
            from ...faults import FaultInjector, FaultSchedule

            if not isinstance(faults, FaultSchedule):
                raise TypeError("faults must be a FaultSchedule (or None)")
            # A node id the backend does not have fails here, not mid-run.
            FaultInjector.validate(faults, backend.cluster)
        self.faults = faults
        self.window_s = window_s
        self.slos = tuple(slos)
        self.simcheck = simcheck
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
        requests = self._requests(num_requests)
        backend = self.backend
        cluster = backend.cluster
        manager: ResilienceManager | None = backend.resilience
        borrowed = self.faults is not None and manager is None
        if borrowed:
            from ...faults import ResilienceManager

            # A schedule without a spec-level policy still needs fault
            # bookkeeping (MTTR, corruption clears): a bare manager, attached
            # for this run only.
            manager = ResilienceManager(None, seed=self.faults.seed)
            backend.resilience = manager
            if cluster.resilience is None:
                cluster.resilience = manager
        # Attached for this run only (``None`` detaches whatever an earlier
        # driver attached): the finished trace rides on the report, and a
        # backend that outlives the run keeps no path to it.
        backend.attach_tracer(self.tracer)
        try:
            return self._play(requests, manager)
        finally:
            backend.attach_tracer(None)
            if borrowed:
                backend.resilience = None
                if cluster.resilience is manager:
                    cluster.resilience = None

    def _play(self, requests: list[ServeRequest], manager: ResilienceManager | None) -> RunReport:
        """:meth:`run`'s body, with the run's resilience manager resolved."""
        backend = self.backend
        admission = self.admission
        if admission is not None:
            admission.reset()
        tracer = self.tracer
        monitor = self._simcheck_monitor()
        backend.attach_simcheck(monitor)
        cluster = backend.cluster
        evictions_before = cluster.total_evictions()
        tier_before = backend.tier_counters()
        # Under capacity pressure an ingest can evict a context a pending
        # request was routed to at *its* arrival: serve what has already
        # arrived before mutating the stores.  Unbounded stores only ever
        # grow, so there the whole stream stays one continuous simulation.
        capacity = backend.spec.max_bytes_per_node
        ingest_is_barrier = capacity is not None

        injector: FaultInjector | None = None
        if self.faults is not None:
            from ...faults import FaultInjector

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
            if pending:
                responses.extend(backend.run(pending))
                pending.clear()

        for index, request in enumerate(requests):
            if tracer is not None:
                tracer.advance_to(request.arrival_s)
            if manager is not None:
                # Breaker timers, the hedge window and the repair queue all
                # run on arrival time; repairs become readable here.
                manager.now = max(manager.now, request.arrival_s)
                if repair_enabled:
                    manager.sweep(cluster, request.arrival_s, tracer)
            if injector is not None and injector.due(request.arrival_s):
                flush()
                if not segment_boundaries:
                    warnings.warn(
                        "a fault event closes the current simulation "
                        "segment: queued link and GPU backlog does not carry "
                        "across the boundary (indices are recorded on "
                        "RunReport.segment_boundaries)",
                        stacklevel=2,
                    )
                segment_boundaries.append(index)
                segment_times.append(request.arrival_s)
                injector.apply_due(request.arrival_s)
            if admission is not None and not admission.admit(request):
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
            if request.num_tokens is None and cluster.known_tokens(request.context_id) is None:
                # Never ingested and no length to prefill its text from: no
                # path serves it.  It fails here, unrouted, so no lookup, node
                # or retry counter sees it.
                hard_failures += 1
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
        flush()

        if injector is not None:
            # Events past the last arrival still happen (and clear MTTR).
            injector.drain()
        if manager is not None:
            manager.drain(cluster, manager.now, tracer)
        fault_outcomes = injector.finalize() if injector is not None else ()

        ingests_, failed_, bytes_ = self._reingest_missed(responses)
        ingests += ingests_
        failed_ingests += failed_
        replication_bytes += bytes_

        served_tokens = [
            self._known_tokens[r.context_id]
            for r in responses
            if r.context_id in self._known_tokens
        ]
        tier_now = backend.tier_counters()
        report = RunReport.from_responses(
            responses,
            spec=backend.spec,
            slo_s=backend.spec.slo_s,
            shed=shed,
            hard_failures=hard_failures,
            ingests=ingests,
            failed_ingests=failed_ingests,
            replication_bytes=replication_bytes,
            total_evictions=cluster.total_evictions() - evictions_before,
            tier=TierState(
                demotions=tier_now.demotions - tier_before.demotions,
                promotions=tier_now.promotions - tier_before.promotions,
                hot_bytes=tier_now.hot_bytes,
                cold_bytes=tier_now.cold_bytes,
            ),
            node_summaries=cluster.node_summaries(),
            mean_context_tokens=(
                int(sum(served_tokens) / len(served_tokens)) if served_tokens else 0
            ),
            # Shed/failed arrivals are part of the offered process even though
            # no response records their times.
            min_duration_s=max((r.arrival_s for r in requests), default=0.0),
        )
        if responses or shed_times:
            recorder = TimeSeriesRecorder.from_run(
                responses,
                window_s=self.window_s or auto_window_s(report.duration_s),
                shed_times=shed_times,
                tracer=tracer,
                duration_s=report.duration_s,
            )
            report.timeseries = recorder
            report.alerts = AlertEngine(self.slos).evaluate(recorder.windows())
        report.segment_boundaries = tuple(segment_boundaries)
        report.segment_boundary_times_s = tuple(segment_times)
        if manager is not None:
            from ...faults import ResilienceReport

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
                or context_id in self.backend.cluster
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
    admission: TokenBucketAdmission | None = None,
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
