"""The concurrent load simulator: requests × links × one GPU, event-driven.

:class:`ConcurrentLoadSimulator` runs a set of requests through the shared
resources: each request walks its :class:`~repro.serving.concurrent.processes.LoadProcess`
stage by stage — wait for its link, transfer, wait for the GPU, compute — so
per-request TTFT decomposes *exactly* into queueing delay (admission + link
wait + GPU wait), transfer time and compute time.  Overlap happens across
requests (one request's transfer runs while another's decode occupies the
GPU), not within a request; the batched decode of co-located requests recoups
what the strict per-request ordering gives up.

This is the one timing loop of the repository: every served request
(:meth:`~repro.serving.api.backends.Backend.run`) and every context
load the method harness evaluates
(:meth:`~repro.baselines.ContextLoadingMethod.evaluate`) is played here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque

from ...metrics.system import QueueingTTFTBreakdown
from ...network.link import NetworkLink, TransferResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ...telemetry.trace import Tracer
    from ..fleet.autoscale import AutoscaleSpec
    from ..fleet.dispatch import DispatchPolicy
    from ..fleet.pool import GpuWorkerPool
from .events import SimClock
from .processes import PROMPT_CONFIG, TIER_CONFIG, LoadProcess, LoadStage
from .resources import DECODE, PREFILL, GpuScheduler, GpuTask, LinkChannel

__all__ = ["StageRecord", "RequestTimeline", "ConcurrentLoadSimulator"]


@dataclass(frozen=True)
class StageRecord:
    """Timeline of one completed stage of one request."""

    index: int
    config: str
    gpu_kind: str | None
    num_bytes: float
    enqueued_s: float
    transfer_start_s: float
    transfer_end_s: float
    ready_at_s: float
    link_wait_s: float
    gpu_wait_s: float
    gpu_busy_s: float
    achieved_throughput_bps: float


@dataclass
class RequestTimeline:
    """Everything that happened to one request, with an exact decomposition.

    ``total_s == queueing_s + transfer_s + compute_s`` holds by construction:
    stages run strictly one after another within a request, and every interval
    of a stage is either waiting (admission, link queue, GPU queue), moving
    bytes, or computing.
    """

    request_id: int
    arrival_s: float
    admitted_s: float = 0.0
    finish_s: float = 0.0
    done: bool = False
    stages: list[StageRecord] = field(default_factory=list)

    @property
    def admission_wait_s(self) -> float:
        return self.admitted_s - self.arrival_s

    @property
    def queueing_s(self) -> float:
        """Admission wait plus all link and GPU queueing."""
        return self.admission_wait_s + sum(
            stage.link_wait_s + stage.gpu_wait_s for stage in self.stages
        )

    @property
    def transfer_s(self) -> float:
        return sum(stage.transfer_end_s - stage.transfer_start_s for stage in self.stages)

    @property
    def total_s(self) -> float:
        """End-to-end latency from arrival to last stage completion."""
        return self.finish_s - self.arrival_s

    @property
    def served_bytes(self) -> float:
        """Bytes shipped over the serving link (cold-tier reads excluded)."""
        return sum(
            stage.num_bytes for stage in self.stages if stage.config != TIER_CONFIG
        )

    @property
    def tier_transfer_s(self) -> float:
        """Serialized cold-tier read time this request paid."""
        return sum(
            stage.transfer_end_s - stage.transfer_start_s
            for stage in self.stages
            if stage.config == TIER_CONFIG
        )

    @property
    def ttft(self) -> QueueingTTFTBreakdown:
        """TTFT split into transfer, decode busy, prefill busy and queueing time."""
        return QueueingTTFTBreakdown(
            network_s=self.transfer_s,
            decode_s=sum(
                stage.gpu_busy_s for stage in self.stages if stage.gpu_kind == DECODE
            ),
            compute_s=sum(
                stage.gpu_busy_s for stage in self.stages if stage.gpu_kind == PREFILL
            ),
            queueing_s=self.queueing_s,
        )

    @property
    def loading_s(self) -> float:
        """Time until the context was loaded: TTFT less the user-prompt stage."""
        for stage in self.stages:
            if stage.config == PROMPT_CONFIG:
                return stage.enqueued_s - self.arrival_s
        return self.total_s


class _RequestState:
    """Mutable per-request bookkeeping while the simulation runs."""

    def __init__(
        self,
        request_id: int,
        arrival_s: float,
        channel: LinkChannel,
        process: LoadProcess,
        throughput_bps: float,
    ) -> None:
        self.channel = channel
        self.process = process
        self.throughput_bps = throughput_bps
        self.timeline = RequestTimeline(request_id=request_id, arrival_s=arrival_s)


class ConcurrentLoadSimulator:
    """Runs concurrent load processes over shared links and one GPU.

    Parameters
    ----------
    max_decode_batch:
        Cap on the GPU's batched decode launches.
    batch_overhead:
        Marginal per-member cost of a batched decode (see
        :class:`~repro.serving.concurrent.resources.GpuScheduler`).
    admission_limit:
        Maximum number of requests in flight; arrivals beyond it queue and are
        admitted FIFO as earlier requests finish (``None`` means unbounded).
    initial_throughput_bps:
        Throughput assumed for a request's first chunk, before it has measured
        anything.
    gpu_workers:
        GPU workers behind the compute stage.  The default of 1 (with the
        default dispatch and no autoscale) runs the original single
        :class:`~repro.serving.concurrent.resources.GpuScheduler` path,
        event-for-event; anything else builds a
        :class:`~repro.serving.fleet.pool.GpuWorkerPool`.
    dispatch_policy:
        Fleet routing: a policy name (``"least-loaded"`` / ``"locality"`` /
        ``"sticky"``) or a :class:`~repro.serving.fleet.dispatch.DispatchPolicy`
        instance.  Passing an instance always engages the pool, even for one
        worker.
    autoscale:
        Optional :class:`~repro.serving.fleet.autoscale.AutoscaleSpec`; when
        set the pool grows/shrinks with load on the simulated clock.
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`; when enabled, the
        link channels and the GPU scheduler it builds record per-transfer /
        per-launch spans, queue-depth samples and busy-time counters.  Track
        names come from :attr:`link_labels` (callers map ``id(link)`` to a
        human-readable label; unlabeled links get ``link-<n>``).  Fleet runs
        add per-worker ``gpu:worker-<i>`` swimlanes and a ``gpu-pool`` track.
    clock_factory:
        Builds the :class:`~repro.serving.concurrent.events.SimClock` for each
        :meth:`run`.  The simcheck sanitizers inject a
        :class:`~repro.simcheck.sanitizers.ClockSanitizer` here to record
        past-time schedules and perturb same-timestamp tie-breaks.
    """

    def __init__(
        self,
        max_decode_batch: int = 16,
        batch_overhead: float = 0.2,
        admission_limit: int | None = None,
        initial_throughput_bps: float = 3e9,
        gpu_workers: int = 1,
        dispatch_policy: "str | DispatchPolicy" = "least-loaded",
        autoscale: "AutoscaleSpec | None" = None,
        tracer: "Tracer | None" = None,
        clock_factory: "Callable[[], SimClock] | None" = None,
    ) -> None:
        if admission_limit is not None and admission_limit < 1:
            raise ValueError("admission_limit must be at least 1 (or None)")
        if initial_throughput_bps <= 0:
            raise ValueError("initial_throughput_bps must be positive")
        if gpu_workers < 1:
            raise ValueError("gpu_workers must be at least 1")
        self.max_decode_batch = max_decode_batch
        self.batch_overhead = batch_overhead
        self.admission_limit = admission_limit
        self.initial_throughput_bps = initial_throughput_bps
        self.gpu_workers = gpu_workers
        self.dispatch_policy = dispatch_policy
        self.autoscale = autoscale
        self.tracer = tracer
        self.clock_factory: "Callable[[], SimClock]" = clock_factory or SimClock
        #: ``id(link)`` → human-readable label used in trace track names.
        self.link_labels: dict[int, str] = {}
        self._pending: list[tuple[float, NetworkLink, LoadProcess, float]] = []
        #: Resource stats of the last run (for reports and tests).  ``gpu`` is
        #: the bare scheduler or the worker pool — both expose the same
        #: aggregate counters; ``pool`` is set only on fleet runs.
        self.gpu: "GpuScheduler | GpuWorkerPool | None" = None
        self.pool: "GpuWorkerPool | None" = None
        self.channels: dict[int, LinkChannel] = {}

    def detach_tracer(self) -> None:
        """Drop the tracer here and from the last run's resources; stats stay."""
        self.tracer = None
        if self.pool is not None:
            self.pool.detach_tracer()
        elif self.gpu is not None:
            self.gpu.tracer = None
        for channel in self.channels.values():
            channel.tracer = None

    @property
    def _fleet_mode(self) -> bool:
        """Whether this run needs the worker pool (vs the bare scheduler).

        The bare single-scheduler path is kept — and taken — whenever the
        fleet settings are all defaults, so existing single-GPU runs stay
        bit-compatible.  A dispatch-policy *instance* forces the pool even
        for one worker (used by tests comparing pool-of-1 to bare).
        """
        return (
            self.gpu_workers > 1
            or self.autoscale is not None
            or self.dispatch_policy != "least-loaded"
        )

    # ----------------------------------------------------------------- staging
    def add_request(
        self,
        arrival_s: float,
        link: NetworkLink,
        process: LoadProcess,
        initial_throughput_bps: float | None = None,
    ) -> int:
        """Stage a request; returns its id (position in the result list).

        ``initial_throughput_bps`` overrides the simulator-wide prior for this
        request (a request served from a fast replica should not start from a
        slow-link estimate).
        """
        if arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if initial_throughput_bps is not None and initial_throughput_bps <= 0:
            raise ValueError("initial_throughput_bps must be positive")
        self._pending.append(
            (arrival_s, link, process, initial_throughput_bps or self.initial_throughput_bps)
        )
        return len(self._pending) - 1

    # --------------------------------------------------------------------- run
    def run(self) -> list[RequestTimeline]:
        """Simulate all staged requests; returns timelines in staging order."""
        if not self._pending:
            raise ValueError("no requests to simulate")
        clock = self.clock_factory()
        tracer = self.tracer
        gpu: "GpuScheduler | GpuWorkerPool"
        if self._fleet_mode:
            from ..fleet.pool import GpuWorkerPool

            gpu = GpuWorkerPool(
                clock,
                num_workers=self.gpu_workers,
                max_decode_batch=self.max_decode_batch,
                batch_overhead=self.batch_overhead,
                dispatch=self.dispatch_policy,
                autoscale=self.autoscale,
                tracer=tracer,
                track_prefix="gpu",
            )
            self.pool = gpu
        else:
            gpu = GpuScheduler(
                clock,
                max_decode_batch=self.max_decode_batch,
                batch_overhead=self.batch_overhead,
                tracer=tracer,
                track="gpu",
            )
            self.pool = None
        channels: dict[int, LinkChannel] = {}

        def link_track(link: NetworkLink) -> str:
            label = self.link_labels.get(id(link), f"link-{len(channels)}")
            return f"link:{label}"

        states: list[_RequestState] = []
        for request_id, (arrival_s, link, process, throughput) in enumerate(self._pending):
            channel = channels.get(id(link))
            if channel is None:
                channel = channels[id(link)] = LinkChannel(
                    clock, link, tracer=tracer, track=link_track(link)
                )
            states.append(
                _RequestState(request_id, arrival_s, channel, process, throughput)
            )
        self._pending = []
        self.gpu = gpu
        self.channels = channels

        in_flight = 0
        admission_queue: Deque[_RequestState] = deque()

        def admit(state: _RequestState) -> None:
            nonlocal in_flight
            in_flight += 1
            state.timeline.admitted_s = clock.now
            advance(state)

        def on_arrival(state: _RequestState) -> None:
            if self.admission_limit is not None and in_flight >= self.admission_limit:
                admission_queue.append(state)
            else:
                admit(state)

        def finish(state: _RequestState) -> None:
            nonlocal in_flight
            state.timeline.finish_s = clock.now
            state.timeline.done = True
            in_flight -= 1
            if admission_queue:
                admit(admission_queue.popleft())

        def channel_for(link: NetworkLink) -> LinkChannel:
            channel = channels.get(id(link))
            if channel is None:
                channel = channels[id(link)] = LinkChannel(
                    clock, link, tracer=tracer, track=link_track(link)
                )
            return channel

        def advance(state: _RequestState) -> None:
            stage = state.process.next_stage(
                throughput_bps=state.throughput_bps,
                elapsed_s=clock.now - state.timeline.arrival_s,
                concurrency=max(in_flight, 1),
            )
            if stage is None:
                finish(state)
                return
            enqueued_s = clock.now
            if stage.num_bytes > 0:
                # A stage may override the request's serving link (a cold-tier
                # read moves bytes over the node's tier link); transfers on the
                # same link still serialize through one FIFO channel.
                channel = state.channel if stage.link is None else channel_for(stage.link)
                channel.request(
                    stage.num_bytes,
                    lambda transfer, wait_s: after_transfer(
                        state, stage, enqueued_s, transfer, wait_s
                    ),
                )
            else:
                transfer = TransferResult(
                    start_time=clock.now, end_time=clock.now, num_bytes=0.0
                )
                after_transfer(state, stage, enqueued_s, transfer, 0.0)

        def after_transfer(
            state: _RequestState,
            stage: LoadStage,
            enqueued_s: float,
            transfer: TransferResult,
            link_wait_s: float,
        ) -> None:
            # Only serving-link transfers update the measured throughput: the
            # adapter estimates the bandwidth of the link the next chunk will
            # use, and a tier-link read says nothing about it.
            if stage.link is None and transfer.num_bytes > 0 and transfer.duration > 0:
                state.throughput_bps = max(transfer.achieved_throughput_bps, 1.0)
            if stage.gpu_kind is not None:
                gpu.submit(
                    GpuTask(
                        request_id=state.timeline.request_id,
                        kind=stage.gpu_kind,
                        duration_s=stage.gpu_s,
                        batch_key=stage.batch_key,
                        session_key=stage.session_key,
                        on_complete=lambda finish_s, busy_s, gpu_wait_s: complete(
                            state,
                            stage,
                            enqueued_s,
                            transfer,
                            link_wait_s,
                            gpu_wait_s,
                            busy_s,
                        ),
                    )
                )
            else:
                complete(state, stage, enqueued_s, transfer, link_wait_s, 0.0, 0.0)

        def complete(
            state: _RequestState,
            stage: LoadStage,
            enqueued_s: float,
            transfer: TransferResult,
            link_wait_s: float,
            gpu_wait_s: float,
            gpu_busy_s: float,
        ) -> None:
            state.timeline.stages.append(
                StageRecord(
                    index=len(state.timeline.stages),
                    config=stage.config,
                    gpu_kind=stage.gpu_kind,
                    num_bytes=stage.num_bytes,
                    enqueued_s=enqueued_s,
                    transfer_start_s=transfer.start_time,
                    transfer_end_s=transfer.end_time,
                    ready_at_s=clock.now,
                    link_wait_s=link_wait_s,
                    gpu_wait_s=gpu_wait_s,
                    gpu_busy_s=gpu_busy_s,
                    achieved_throughput_bps=state.throughput_bps,
                )
            )
            advance(state)

        for state in states:
            clock.schedule(state.timeline.arrival_s, lambda s=state: on_arrival(s))
        clock.run()
        stuck = [state.timeline.request_id for state in states if not state.timeline.done]
        if stuck:
            raise RuntimeError(
                f"simulation deadlocked: requests {stuck} never finished"
            )
        return [state.timeline for state in states]
