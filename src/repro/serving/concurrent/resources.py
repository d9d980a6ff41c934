"""Contended resources of the concurrent serving simulation.

Two resources shape a request's end-to-end latency under concurrency:

* :class:`LinkChannel` — a FIFO queue in front of one
  :class:`~repro.network.link.NetworkLink`.  Transfers over the same link
  serialize (the streaming of one request delays the streaming of another on
  the same storage node), while transfers over *different* links overlap
  freely — which is exactly how one request's network streaming overlaps
  another request's GPU compute.

* :class:`GpuScheduler` — the GPU server's run queue.  Prefill and bitstream
  decode work is serialized on the single GPU in FIFO order, so queueing
  delay *emerges* from contention instead of being modeled as a static
  ``1/n`` share.  KV bitstream decodes headed to the same serving node are
  coalesced into one batched kernel launch (continuous batching): whenever
  the GPU frees up, every queued decode with the head-of-line's batch key
  joins the next launch, whose duration is the longest member plus a small
  per-extra-member overhead — so a batch of N decodes finishes well before N
  sequential launches would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque

from ...network.link import NetworkLink, TransferResult
from .events import SimClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ...telemetry.trace import Tracer

__all__ = ["LinkChannel", "GpuTask", "GpuScheduler", "DECODE", "PREFILL"]

#: GPU work kinds.  Decodes are batchable; prefills run one at a time (the
#: paper's serving stack pads prefills into a batch only at equal lengths,
#: which the simulation conservatively models as serial execution).
DECODE = "decode"
PREFILL = "prefill"


class LinkChannel:
    """FIFO access to one network link.

    ``request`` enqueues a transfer; when the link frees up the next transfer
    starts and its completion callback fires with the
    :class:`~repro.network.link.TransferResult` and the time the transfer
    spent waiting for the link.
    """

    def __init__(
        self,
        clock: SimClock,
        link: NetworkLink,
        tracer: "Tracer | None" = None,
        track: str = "link",
    ) -> None:
        self.clock = clock
        self.link = link
        self.tracer = tracer
        self.track = track
        self._queue: Deque[tuple[float, float, Callable[[TransferResult, float], None]]] = deque()
        self._busy = False
        self.total_wait_s = 0.0
        self.total_busy_s = 0.0

    def _sample_depth(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            depth = self.queue_depth
            tracer.sample("queue_depth", depth, track=self.track, at_s=self.clock.now)
            tracer.metrics.gauge(
                "link_queue_depth", "transfers queued or in flight per link"
            ).set(depth, link=self.track)

    @property
    def queue_depth(self) -> int:
        """Transfers waiting (including the one in flight)."""
        return len(self._queue) + (1 if self._busy else 0)

    def request(
        self, num_bytes: float, on_complete: Callable[[TransferResult, float], None]
    ) -> None:
        """Enqueue a transfer of ``num_bytes``; serve it when the link frees."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        self._queue.append((num_bytes, self.clock.now, on_complete))
        self._sample_depth()
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        num_bytes, enqueued_s, on_complete = self._queue.popleft()
        self._busy = True
        wait_s = self.clock.now - enqueued_s
        transfer = self.link.transfer(num_bytes, self.clock.now)
        self.total_wait_s += wait_s
        self.total_busy_s += transfer.duration
        tracer = self.tracer
        if tracer is not None:
            tracer.span(
                "transfer",
                track=self.track,
                start_s=self.clock.now,
                dur_s=transfer.duration,
                category="transfer",
                bytes=num_bytes,
                wait_s=wait_s,
            )
            tracer.metrics.counter("link_busy_s", "seconds each link spent transferring").inc(
                transfer.duration, link=self.track
            )
            tracer.metrics.counter("link_wait_s", "seconds transfers waited per link").inc(
                wait_s, link=self.track
            )
            tracer.metrics.counter("link_bytes", "bytes moved per link").inc(
                num_bytes, link=self.track
            )

        def _done() -> None:
            self._busy = False
            self._sample_depth()
            on_complete(transfer, wait_s)
            self._pump()

        self.clock.schedule(transfer.end_time, _done)


@dataclass
class GpuTask:
    """One unit of GPU work (a chunk decode or a prefill).

    ``on_complete`` receives ``(finish_s, busy_s, wait_s)``: when the work
    completed, the GPU time attributable to this task (its solo duration —
    independent of how many batchmates shared the launch), and everything
    else the task spent between enqueue and completion (run-queue wait plus
    the time riding along in a longer batched launch).

    ``batch_key`` is the batching domain (decodes sharing it may coalesce);
    ``session_key`` identifies a chat session for sticky fleet dispatch and
    plays no role on a single scheduler.
    """

    request_id: int
    kind: str
    duration_s: float
    on_complete: Callable[[float, float, float], None]
    batch_key: str | None = None
    session_key: str | None = None
    enqueued_s: float = field(default=0.0, compare=False)


class GpuScheduler:
    """Serializes GPU work with continuous batching of compatible decodes.

    Parameters
    ----------
    clock:
        The simulation clock.
    max_decode_batch:
        Maximum number of decodes coalesced into one batched launch (``B`` in
        §5.3).
    batch_overhead:
        Marginal cost of each extra batch member, as a fraction of its solo
        duration.  A batch of decodes with durations ``d_i`` takes
        ``max(d_i) + batch_overhead * (sum(d_i) - max(d_i))`` — strictly less
        than running them back to back whenever the overhead is below 1.
    """

    def __init__(
        self,
        clock: SimClock,
        max_decode_batch: int = 16,
        batch_overhead: float = 0.2,
        tracer: "Tracer | None" = None,
        track: str = "gpu",
    ) -> None:
        if max_decode_batch < 1:
            raise ValueError("max_decode_batch must be at least 1")
        if not 0.0 <= batch_overhead <= 1.0:
            raise ValueError("batch_overhead must be in [0, 1]")
        self.clock = clock
        self.max_decode_batch = max_decode_batch
        self.batch_overhead = batch_overhead
        self.tracer = tracer
        self.track = track
        self._queue: list[GpuTask] = []
        self._busy = False
        self._launch_pending = False
        self.total_busy_s = 0.0
        self.total_wait_s = 0.0
        self.tasks_run = 0
        self.batches_run = 0

    def _sample_depth(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            depth = self.queue_depth
            tracer.sample("queue_depth", depth, track=self.track, at_s=self.clock.now)
            tracer.metrics.gauge(
                "gpu_queue_depth", "tasks queued or running per GPU scheduler"
            ).set(depth, gpu=self.track)

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    @staticmethod
    def batched_duration_s(durations: list[float], batch_overhead: float) -> float:
        """Duration of one batched launch over the members' solo durations."""
        if not durations:
            return 0.0
        longest = max(durations)
        return longest + batch_overhead * (sum(durations) - longest)

    def submit(self, task: GpuTask) -> None:
        """Queue GPU work; it runs (possibly batched) when the GPU frees."""
        if task.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        task.enqueued_s = self.clock.now
        self._queue.append(task)
        self._sample_depth()
        self._schedule_launch()

    def _schedule_launch(self) -> None:
        """Launch via a zero-delay event, not synchronously.

        Work becoming ready at the same simulated instant (e.g. transfers
        over parallel links completing together) must all be in the queue
        before the launch forms, or the first arrival would start a solo
        launch and its batchmates would wait a full round — continuous
        batching coalesces everything the current instant delivers.
        """
        if self._busy or self._launch_pending or not self._queue:
            return
        self._launch_pending = True
        self.clock.schedule_after(0.0, self._pump)

    def _pump(self) -> None:
        self._launch_pending = False
        if self._busy or not self._queue:
            return
        head = self._queue[0]
        if head.kind == DECODE and head.batch_key is not None:
            # Continuous batching: every queued decode headed to the same
            # node as the head of line joins this launch, up to the batch cap.
            # Unkeyed decodes never batch — None is "no domain", not a domain.
            batch = [
                task
                for task in self._queue
                if task.kind == DECODE and task.batch_key == head.batch_key
            ][: self.max_decode_batch]
        else:
            batch = [head]
        chosen = {id(task) for task in batch}
        self._queue = [task for task in self._queue if id(task) not in chosen]

        start_s = self.clock.now
        busy_s = self.batched_duration_s(
            [task.duration_s for task in batch], self.batch_overhead
        )
        self._busy = True
        self.total_busy_s += busy_s
        self.tasks_run += len(batch)
        self.batches_run += 1
        for task in batch:
            self.total_wait_s += start_s - task.enqueued_s
        tracer = self.tracer
        if tracer is not None:
            name = (
                f"batch {head.kind} x{len(batch)}" if len(batch) > 1 else head.kind
            )
            tracer.span(
                name,
                track=self.track,
                start_s=start_s,
                dur_s=busy_s,
                category=head.kind,
                batch_size=len(batch),
                request_ids=tuple(task.request_id for task in batch),
            )
            tracer.metrics.counter("gpu_busy_s", "seconds each GPU spent launched").inc(
                busy_s, gpu=self.track
            )
            tracer.metrics.counter("gpu_tasks", "GPU tasks run per scheduler").inc(
                len(batch), gpu=self.track
            )
            tracer.metrics.counter("gpu_batches", "batched launches per scheduler").inc(
                1, gpu=self.track
            )
            tracer.metrics.histogram(
                "gpu_batch_size", "decode tasks coalesced per launch"
            ).observe(len(batch), gpu=self.track)
            tracer.metrics.counter(
                "gpu_wait_s", "seconds tasks spent in the run queue per scheduler"
            ).inc(sum(start_s - task.enqueued_s for task in batch), gpu=self.track)

        def _done() -> None:
            self._busy = False
            self._sample_depth()
            finish_s = start_s + busy_s
            for task in batch:
                # A member is "busy" for its own solo duration only; queue
                # wait and the overhang of sharing a longer launch are waits,
                # so per-request compute stays independent of concurrency.
                task.on_complete(
                    finish_s,
                    task.duration_s,
                    max(finish_s - task.enqueued_s - task.duration_s, 0.0),
                )
            self._schedule_launch()

        self.clock.schedule(start_s + busy_s, _done)
