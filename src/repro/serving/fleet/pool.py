"""A pool of GPU workers behind one dispatch policy and an autoscaler.

:class:`GpuWorkerPool` is the fleet-scale replacement for the single
:class:`~repro.serving.concurrent.resources.GpuScheduler` of the event-driven
engine: it owns ``N`` workers (each a full ``GpuScheduler`` with its own run
queue, continuous batching and telemetry track), routes every submitted
:class:`~repro.serving.concurrent.resources.GpuTask` through a pluggable
:class:`~repro.serving.fleet.dispatch.DispatchPolicy`, and — when an
:class:`~repro.serving.fleet.autoscale.AutoscaleSpec` is attached — grows and
shrinks the pool from the run's own load signal on the simulated clock.

The pool speaks the scheduler's interface (``submit`` plus the aggregate
stat counters), so the
:class:`~repro.serving.concurrent.simulator.ConcurrentLoadSimulator` drives
either interchangeably; a pool of one worker with the default policy is
event-for-event identical to a bare scheduler.

Telemetry: each worker records its own ``gpu:worker-<i>`` swimlane (batched
launches, queue-depth samples, busy counters — exactly what the single GPU
recorded before), and the pool adds a ``gpu-pool`` counter track with the
live pool size plus ``scale-up`` / ``worker online`` / ``scale-down``
instants, so Perfetto timelines and the run dashboard show the fleet
breathing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..concurrent.events import SimClock
from ..concurrent.resources import GpuScheduler, GpuTask
from .autoscale import AutoscaleSpec
from .dispatch import DispatchPolicy, make_dispatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ...telemetry.trace import Tracer

__all__ = ["GpuWorkerPool", "POOL_TRACK"]

#: Telemetry track carrying the pool-size counter and scale instants.
POOL_TRACK = "gpu-pool"


class GpuWorkerPool:
    """N GPU workers, one dispatch policy, optional autoscaling.

    Parameters
    ----------
    clock:
        The simulation clock shared with the links and load processes.
    num_workers:
        Initial pool size (the autoscaler may move it within its bounds).
    max_batch_size / batch_overhead:
        Continuous-batching settings of every worker (see
        :class:`~repro.serving.concurrent.resources.GpuScheduler`).
    dispatch:
        A policy name (``"least-loaded"`` / ``"locality"`` / ``"sticky"``)
        or a :class:`~repro.serving.fleet.dispatch.DispatchPolicy` instance.
    autoscale:
        Optional :class:`~repro.serving.fleet.autoscale.AutoscaleSpec`;
        ``None`` keeps the pool size fixed.
    tracer:
        Optional telemetry tracer (per-worker swimlanes, pool-size track).
    track_prefix:
        Prefix of the worker track names (worker ``i`` records on
        ``"<prefix>:worker-<i>"``).

    Example
    -------
    >>> from repro.serving.concurrent import SimClock
    >>> pool = GpuWorkerPool(SimClock(), num_workers=4, dispatch="locality")
    >>> pool.size
    4
    """

    def __init__(
        self,
        clock: SimClock,
        num_workers: int = 1,
        *,
        max_batch_size: int = 16,
        batch_overhead: float = 0.2,
        dispatch: str | DispatchPolicy = "least-loaded",
        autoscale: AutoscaleSpec | None = None,
        tracer: "Tracer | None" = None,
        track_prefix: str = "gpu",
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.clock = clock
        self.max_batch_size = max_batch_size
        self.batch_overhead = batch_overhead
        self.dispatch = make_dispatch(dispatch)
        self.autoscale = autoscale
        self.tracer = tracer
        self.track_prefix = track_prefix
        self._workers: list[GpuScheduler] = []
        self._retired: list[GpuScheduler] = []
        self._spawned = 0
        self._warming = 0
        self._last_submit_s = 0.0
        #: ``(at_s, kind, pool_size_after)`` for every scale decision.
        self.scale_events: list[tuple[float, str, int]] = []
        if autoscale is not None:
            num_workers = autoscale.clamp(num_workers)
        for _ in range(num_workers):
            self._spawn_worker()
        self._sample_pool_size()

    # ------------------------------------------------------------------ state
    @property
    def workers(self) -> Sequence[GpuScheduler]:
        """The active workers, in worker-index order."""
        return tuple(self._workers)

    @property
    def size(self) -> int:
        """Number of active workers (excludes workers still warming up)."""
        return len(self._workers)

    @property
    def queue_depth(self) -> int:
        """Tasks queued or running across the whole pool."""
        return sum(worker.queue_depth for worker in self._workers)

    def _all_workers(self) -> list[GpuScheduler]:
        return self._workers + self._retired

    # Aggregate counters mirroring the bare scheduler's stats surface.
    @property
    def total_busy_s(self) -> float:
        return sum(worker.total_busy_s for worker in self._all_workers())

    @property
    def total_wait_s(self) -> float:
        return sum(worker.total_wait_s for worker in self._all_workers())

    @property
    def tasks_run(self) -> int:
        return sum(worker.tasks_run for worker in self._all_workers())

    @property
    def batches_run(self) -> int:
        return sum(worker.batches_run for worker in self._all_workers())

    # ----------------------------------------------------------------- submit
    def submit(self, task: GpuTask) -> GpuScheduler:
        """Dispatch one GPU task to a worker; returns the worker chosen."""
        now = self.clock.now
        self._last_submit_s = now
        if self.autoscale is not None:
            self._consider_scale_up()
        index = self.dispatch.pick(task, self._workers)
        worker = self._workers[index]
        if self.autoscale is not None:
            self._hook_completion(task)
        worker.submit(task)
        return worker

    # -------------------------------------------------------------- telemetry
    def _sample_pool_size(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.sample(
                "pool_size", self.size, track=POOL_TRACK, at_s=self.clock.now
            )
            tracer.metrics.gauge(
                "gpu_pool_size", "active GPU workers in the pool"
            ).set(self.size)

    def _emit_instant(self, name: str, **args) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                name, track=POOL_TRACK, at_s=self.clock.now, category="autoscale", **args
            )
            tracer.metrics.counter(
                "gpu_pool_scale_events", "autoscaler decisions by kind"
            ).inc(1, kind=name)

    # ------------------------------------------------------------ pool sizing
    def _spawn_worker(self) -> GpuScheduler:
        worker = GpuScheduler(
            self.clock,
            max_batch_size=self.max_batch_size,
            batch_overhead=self.batch_overhead,
            tracer=self.tracer,
            track=f"{self.track_prefix}:worker-{self._spawned}",
        )
        self._spawned += 1
        self._workers.append(worker)
        return worker

    def _consider_scale_up(self) -> None:
        """Provision one worker when per-worker queue depth crosses the mark.

        The signal is the queue-depth buildup of the current arrival window:
        pending-or-running tasks per worker, counting workers still warming
        (they will absorb the backlog once online, so double-provisioning on
        the same spike is suppressed).
        """
        spec = self.autoscale
        assert spec is not None
        provisioned = self.size + self._warming
        if provisioned >= spec.max_workers:
            return
        depth_per_worker = (self.queue_depth + 1) / provisioned
        if depth_per_worker < spec.high_queue_depth:
            return
        self._warming += 1
        self._emit_instant(
            "scale-up",
            pool_size=self.size,
            warming=self._warming,
            queue_depth=self.queue_depth,
        )
        self.scale_events.append((self.clock.now, "scale-up", self.size))

        def _online() -> None:
            self._warming -= 1
            worker = self._spawn_worker()
            self._emit_instant("worker online", worker=worker.track)
            self.scale_events.append((self.clock.now, "worker online", self.size))
            self._sample_pool_size()

        self.clock.schedule_after(spec.warmup_s, _online)

    def _hook_completion(self, task: GpuTask) -> None:
        """Observe task completions so sustained idle can trigger scale-down."""
        original = task.on_complete

        def _completed(finish_s: float, busy_s: float, wait_s: float) -> None:
            original(finish_s, busy_s, wait_s)
            self._consider_scale_down()

        task.on_complete = _completed

    def _consider_scale_down(self) -> None:
        spec = self.autoscale
        assert spec is not None
        if self.size <= spec.min_workers or self.queue_depth > 0:
            return
        idle_since = max(self._last_submit_s, self.clock.now)

        def _check() -> None:
            # A submission (or an earlier retirement) since the check was
            # scheduled restarts the idle horizon; the next completion or
            # retirement schedules a fresh check.
            if self._last_submit_s > idle_since or self.queue_depth > 0:
                return
            if self.size <= spec.min_workers:
                return
            self._retire_worker()
            if self.size > spec.min_workers:
                self.clock.schedule_after(spec.idle_s, _check)

        self.clock.schedule_after(spec.idle_s, _check)

    def _retire_worker(self) -> GpuScheduler | None:
        """Gracefully remove the highest-index idle worker (if any)."""
        for index in range(len(self._workers) - 1, -1, -1):
            if self._workers[index].queue_depth == 0:
                worker = self._workers.pop(index)
                break
        else:  # pragma: no cover - callers check queue_depth == 0 first
            return None
        self.dispatch.forget_worker(worker)
        self._retired.append(worker)
        self._emit_instant("scale-down", worker=worker.track, pool_size=self.size)
        self.scale_events.append((self.clock.now, "scale-down", self.size))
        self._sample_pool_size()
        return worker
