"""Tests for multi-GPU fleet serving: dispatch policies, the worker pool,
the autoscaler, and the fleet-level Figure 12 sweep.

The load-bearing guarantees pinned here:

* dispatch is deterministic — equal loads tie-break to the lowest worker
  index, and a replayed task stream routes identically;
* locality dispatch co-batches same-key decodes on one worker, beating a
  spread that splits the batching domain;
* sticky sessions survive a scale-down: the binding is forgotten with the
  retired worker and transparently re-pinned on the session's next task;
* a pool of one worker is event-for-event identical to the bare scheduler,
  and ``gpu_workers=1`` reproduces the historical Figure 12 curve exactly;
* more workers strictly reduce queueing delay at high load;
* a flash crowd triggers a scale-up that restores SLO attainment, and the
  whole episode is visible in telemetry (pool-size track, dashboard lane).
"""

from __future__ import annotations

import pytest

from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving import (
    AutoscaleSpec,
    LeastLoadedDispatch,
    LocalityDispatch,
    StickyDispatch,
    make_dispatch,
)
from repro.serving.api import ServeRequest, ServingSpec, build_backend
from repro.serving.concurrent import (
    ConcurrentLoadSimulator,
    DECODE,
    GpuScheduler,
    GpuTask,
    LoadStage,
    PREFILL,
    SimClock,
    StaticLoad,
)
from repro.serving.fleet import GpuWorkerPool
from repro.serving.fleet.pool import POOL_TRACK
from repro.telemetry import TimeSeriesRecorder, Tracer, render_dashboard


def _task(request_id: int, **kwargs) -> GpuTask:
    kwargs.setdefault("kind", DECODE)
    kwargs.setdefault("duration_s", 0.05)
    kwargs.setdefault("on_complete", lambda *a: None)
    return GpuTask(request_id=request_id, **kwargs)


def pool_total(pool: GpuWorkerPool, counter: str) -> float:
    """A scheduler counter summed over a pool's workers, retired ones included."""
    return sum(getattr(worker, counter) for worker in pool._workers + pool._retired)


def timeline_compute_s(timeline) -> float:
    return sum(stage.gpu_busy_s for stage in timeline.stages)


def _link(gbps_rate: float = 10.0) -> NetworkLink:
    return NetworkLink(ConstantTrace(gbps(gbps_rate)))


# ------------------------------------------------------------------ dispatch
class TestDispatchPolicies:
    def test_least_loaded_tie_breaks_to_lowest_index(self):
        clock = SimClock()
        workers = [GpuScheduler(clock) for _ in range(3)]
        policy = LeastLoadedDispatch()
        # All idle: deterministic tie-break to index 0.
        assert policy.pick(_task(0), workers) == 0
        # Load worker 0; the shallower queues win, lowest index first.
        workers[0].submit(_task(1, kind=PREFILL))
        assert policy.pick(_task(2), workers) == 1
        workers[1].submit(_task(3, kind=PREFILL))
        assert policy.pick(_task(4), workers) == 2

    def test_replayed_stream_routes_identically(self):
        def route(n: int) -> list[str]:
            clock = SimClock()
            pool = GpuWorkerPool(clock, num_workers=3)
            return [pool.submit(_task(i, batch_key=f"node-{i % 2}")).track for i in range(n)]

        assert route(12) == route(12)

    def test_locality_pins_batch_key_to_one_worker(self):
        clock = SimClock()
        workers = [GpuScheduler(clock) for _ in range(3)]
        policy = LocalityDispatch()
        first = policy.pick(_task(0, batch_key="node-0"), workers)
        # Load every other worker heavily: the binding still wins.
        for worker in workers:
            worker.submit(_task(9, kind=PREFILL))
        assert policy.pick(_task(1, batch_key="node-0"), workers) == first

    def test_keyless_tasks_fall_back_to_least_loaded(self):
        clock = SimClock()
        workers = [GpuScheduler(clock) for _ in range(2)]
        policy = LocalityDispatch()
        workers[0].submit(_task(0, kind=PREFILL))
        assert policy.pick(_task(1, batch_key=None), workers) == 1

    def test_sticky_routes_by_session_over_batch_key(self):
        clock = SimClock()
        workers = [GpuScheduler(clock) for _ in range(2)]
        policy = StickyDispatch()
        bound = policy.pick(_task(0, session_key="chat-1", batch_key="node-0"), workers)
        # Same session, different batch key: still the bound worker.
        assert (
            policy.pick(_task(1, session_key="chat-1", batch_key="node-1"), workers)
            == bound
        )

    def test_sticky_sessions_survive_forget_worker(self):
        clock = SimClock()
        workers = [GpuScheduler(clock) for _ in range(2)]
        policy = StickyDispatch()
        # Pin the session on worker 1 by loading worker 0 first.
        workers[0].submit(_task(0, kind=PREFILL))
        assert policy.pick(_task(1, session_key="chat-1"), workers) == 1
        # Worker 1 is retired: the binding is forgotten, the session re-pins
        # on its next task to a live worker and sticks there.
        retired = workers.pop(1)
        policy.forget_worker(retired)
        repinned = policy.pick(_task(2, session_key="chat-1"), workers)
        assert repinned == 0
        assert policy.pick(_task(3, session_key="chat-1"), workers) == repinned

    def test_make_dispatch(self):
        assert isinstance(make_dispatch("least-loaded"), LeastLoadedDispatch)
        assert isinstance(make_dispatch("locality"), LocalityDispatch)
        assert isinstance(make_dispatch("sticky"), StickyDispatch)
        policy = StickyDispatch()
        assert make_dispatch(policy) is policy
        with pytest.raises(ValueError, match="unknown dispatch policy"):
            make_dispatch("round-robin")


# ----------------------------------------------------------- locality batching
class TestLocalityCoBatching:
    @staticmethod
    def _run(dispatch) -> tuple[float, int]:
        """8 decodes of key A then 8 of key B on a two-worker pool."""
        clock = SimClock()
        pool = GpuWorkerPool(clock, num_workers=2, dispatch=dispatch)
        finish: dict[int, float] = {}
        for i in range(16):
            key = "ctx-a" if i < 8 else "ctx-b"
            pool.submit(
                _task(
                    i,
                    batch_key=key,
                    on_complete=lambda f, b, w, i=i: finish.__setitem__(i, f),
                )
            )
        clock.run()
        return max(finish.values()), pool_total(pool, "batches_run")

    def test_batched_beats_spread(self):
        # Locality keeps each batching domain whole on one worker: one launch
        # of 8 per worker.  Least-loaded spreads each domain over both
        # workers, so every worker pays two half-size launches back to back.
        local_makespan, local_batches = self._run("locality")
        spread_makespan, spread_batches = self._run("least-loaded")
        assert local_makespan < spread_makespan
        assert local_batches < spread_batches
        # Exact schedules: 0.05 + 0.2 * 7*0.05 batched-8 vs two batched-4.
        assert local_makespan == pytest.approx(0.12)
        assert spread_makespan == pytest.approx(0.16)
        assert (local_batches, spread_batches) == (2, 4)


# ----------------------------------------------------------------------- pool
class TestGpuWorkerPool:
    def test_num_workers_validated(self):
        with pytest.raises(ValueError):
            GpuWorkerPool(SimClock(), num_workers=0)

    def test_queue_depth_aggregates_over_workers(self):
        clock = SimClock()
        pool = GpuWorkerPool(clock, num_workers=2)
        for i in range(3):
            pool.submit(_task(i, kind=PREFILL))
        assert pool.queue_depth == 3
        clock.run()
        assert pool.queue_depth == 0
        assert pool_total(pool, "tasks_run") == 3

    @staticmethod
    def _stage_requests(sim: ConcurrentLoadSimulator) -> None:
        link = _link(1.0)
        for i in range(6):
            sim.add_request(
                0.1 * i,
                link,
                StaticLoad(
                    [
                        LoadStage(
                            config="quant",
                            num_bytes=5e6,
                            gpu_kind=DECODE,
                            gpu_s=0.05,
                            batch_key="node-0",
                        ),
                        LoadStage(config="prompt", gpu_kind=PREFILL, gpu_s=0.02),
                    ]
                ),
            )

    def test_pool_of_one_is_bit_compatible_with_bare_scheduler(self):
        bare = ConcurrentLoadSimulator()
        self._stage_requests(bare)
        bare_timelines = bare.run()
        assert bare.pool is None  # defaults take the single-scheduler path

        # A policy *instance* forces the pool even for one worker.
        pooled = ConcurrentLoadSimulator(dispatch_policy=LeastLoadedDispatch())
        self._stage_requests(pooled)
        pooled_timelines = pooled.run()
        assert pooled.pool is not None

        # Exact == on purpose: pool-of-1 must be *bit-identical* to the bare
        # scheduler path, not merely close.
        for a, b in zip(bare_timelines, pooled_timelines):
            assert a.finish_s == b.finish_s  # simcheck: ignore[SIM004]
            assert a.total_s == b.total_s  # simcheck: ignore[SIM004]
            assert a.queueing_s == b.queueing_s  # simcheck: ignore[SIM004]
            assert a.transfer_s == b.transfer_s  # simcheck: ignore[SIM004]
            assert timeline_compute_s(a) == timeline_compute_s(b)  # simcheck: ignore[SIM004]
        # The aggregate counters mirror the bare scheduler's exactly.
        assert pool_total(pooled.gpu, "total_busy_s") == bare.gpu.total_busy_s  # simcheck: ignore[SIM004]
        assert pool_total(pooled.gpu, "total_wait_s") == bare.gpu.total_wait_s  # simcheck: ignore[SIM004]
        assert pool_total(pooled.gpu, "tasks_run") == bare.gpu.tasks_run
        assert pool_total(pooled.gpu, "batches_run") == bare.gpu.batches_run

    def test_more_workers_strictly_reduce_queueing_at_high_load(self):
        def mean_queueing(gpu_workers: int) -> float:
            sim = ConcurrentLoadSimulator(gpu_workers=gpu_workers)
            link = _link(10.0)
            for i in range(12):
                sim.add_request(
                    0.0,
                    link,
                    StaticLoad(
                        [LoadStage(config="prompt", gpu_kind=PREFILL, gpu_s=0.1)]
                    ),
                )
            timelines = sim.run()
            return sum(t.queueing_s for t in timelines) / len(timelines)

        assert mean_queueing(4) < mean_queueing(1)


# ----------------------------------------------------------------- autoscaler
class TestAutoscaleSpec:
    def test_defaults_valid_and_clamp(self):
        spec = AutoscaleSpec(min_workers=2, max_workers=4)
        assert spec.clamp(1) == 2
        assert spec.clamp(3) == 3
        assert spec.clamp(9) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_workers": 0},
            {"min_workers": 4, "max_workers": 2},
            {"high_queue_depth": 0.0},
            {"idle_s": 0.0},
            {"warmup_s": -0.1},
            {"window_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AutoscaleSpec(**kwargs)


class TestAutoscaler:
    SPEC = AutoscaleSpec(
        min_workers=1, max_workers=4, high_queue_depth=3.0, warmup_s=0.1, idle_s=0.5
    )

    def _burst_pool(self) -> tuple[SimClock, GpuWorkerPool]:
        clock = SimClock()
        pool = GpuWorkerPool(clock, num_workers=1, autoscale=self.SPEC)
        for i in range(10):
            pool.submit(_task(i, kind=PREFILL, duration_s=0.2))
        return clock, pool

    def test_scale_up_on_queue_buildup_after_warmup(self):
        clock, pool = self._burst_pool()
        assert pool.size == 1  # decision made, worker not online yet
        kinds = [kind for _, kind, _ in pool.scale_events]
        assert "scale-up" in kinds
        clock.run()
        kinds = [kind for _, kind, _ in pool.scale_events]
        assert "worker online" in kinds
        online_at = min(at for at, kind, _ in pool.scale_events if kind == "worker online")
        assert online_at == pytest.approx(self.SPEC.warmup_s)

    def test_scale_down_after_sustained_idle(self):
        clock, pool = self._burst_pool()
        clock.run()
        # The burst drained long ago; sustained idle retired the extras.
        assert pool.size == self.SPEC.min_workers
        downs = [at for at, kind, _ in pool.scale_events if kind == "scale-down"]
        assert downs
        # Retirement waits out the idle horizon after the last completion.
        last_up = max(at for at, kind, _ in pool.scale_events if kind == "worker online")
        assert min(downs) >= last_up + 0.0
        assert pool_total(pool, "tasks_run") == 10  # retired workers keep their stats counted

    def test_sticky_sessions_survive_scale_down(self):
        spec = AutoscaleSpec(min_workers=1, max_workers=2, idle_s=0.2, warmup_s=0.0)
        clock = SimClock()
        pool = GpuWorkerPool(clock, num_workers=2, dispatch="sticky", autoscale=spec)
        # Pin the session on worker 1 (worker 0 is made busier first).
        pool.submit(_task(0, kind=PREFILL, duration_s=0.3))
        bound = pool.submit(_task(1, kind=PREFILL, duration_s=0.1, session_key="chat-1"))
        assert bound.track == "gpu:worker-1"

        routed: list[str] = []

        def late_submit() -> None:
            # Long after the idle scale-down retired worker 1: the session
            # must transparently re-pin to a live worker and stick to it.
            assert pool.size == 1
            for i in (2, 3):
                routed.append(
                    pool.submit(_task(i, duration_s=0.01, session_key="chat-1")).track
                )

        clock.schedule(5.0, late_submit)
        clock.run()
        assert ("scale-down" in [kind for _, kind, _ in pool.scale_events])
        assert routed == ["gpu:worker-0", "gpu:worker-0"]


# ------------------------------------------------------------ flash crowd SLO
class TestFlashCrowd:
    SLO_S = 0.5

    @staticmethod
    def _run(autoscale: AutoscaleSpec | None, tracer: Tracer | None = None):
        sim = ConcurrentLoadSimulator(
            gpu_workers=1, autoscale=autoscale, tracer=tracer
        )
        link = _link(10.0)
        for i in range(20):
            sim.add_request(
                0.01 * i,
                link,
                StaticLoad([LoadStage(config="prompt", gpu_kind=PREFILL, gpu_s=0.1)]),
            )
        return sim, sim.run()

    def test_scale_up_restores_slo_attainment(self):
        autoscale = AutoscaleSpec(
            min_workers=1, max_workers=4, high_queue_depth=2.0, warmup_s=0.05, idle_s=1.0
        )
        tracer = Tracer()
        scaled_sim, scaled = self._run(autoscale, tracer)
        _, fixed = self._run(None)

        def attainment(timelines) -> float:
            return sum(t.total_s <= self.SLO_S for t in timelines) / len(timelines)

        assert any(kind == "scale-up" for _, kind, _ in scaled_sim.pool.scale_events)
        assert attainment(scaled) > attainment(fixed)
        assert sum(t.queueing_s for t in scaled) < sum(t.queueing_s for t in fixed)

        # The episode is visible end to end in telemetry: pool-size samples,
        # scale instants, and a pool lane on the rendered dashboard.
        assert any(
            s.name == "pool_size" and s.track == POOL_TRACK for s in tracer.samples
        )
        assert any(i.name == "scale-up" for i in tracer.instants)
        recorder = TimeSeriesRecorder.from_tracer(tracer, window_s=0.1)
        sizes = [w.pool_size for w in recorder.windows() if w.pool_size is not None]
        assert sizes and max(sizes) > 1
        # Pool-size samples are their own series, not a queue-depth lane.
        assert all(
            POOL_TRACK not in window.max_queue_depth for window in recorder.windows()
        )
        html = render_dashboard(recorder)
        assert "GPU pool size" in html
        assert "data-pool-peak" in html


# -------------------------------------------------------------- spec plumbing
class TestFleetSpec:
    def test_gpu_workers_validated(self):
        with pytest.raises(ValueError, match="gpu_workers"):
            ServingSpec(concurrency=4, gpu_workers=0)

    def test_dispatch_policy_validated(self):
        with pytest.raises(ValueError, match="dispatch policy"):
            ServingSpec(concurrency=4, dispatch_policy="round-robin")

    def test_fleet_serves_on_a_default_spec(self, fitted_codec):
        backend = build_backend(ServingSpec(gpu_workers=2), codec=fitted_codec())
        (response,) = backend.run([ServeRequest("never-ingested", "question?", num_tokens=640)])
        assert response.ttft_s > 0
        assert backend.last_sim.pool.size == 2

    def test_autoscale_bounds_must_contain_gpu_workers(self):
        with pytest.raises(ValueError, match="autoscale bounds"):
            ServingSpec(
                concurrency=4,
                gpu_workers=8,
                autoscale=AutoscaleSpec(min_workers=1, max_workers=4),
            )

    def test_backend_runs_a_fleet_with_sticky_sessions(self):
        spec = ServingSpec(concurrency=4, gpu_workers=2, dispatch_policy="sticky")
        backend = build_backend(spec)
        backend.ingest("ctx", 1_200)
        responses = backend.run(
            [
                ServeRequest(
                    "ctx",
                    "question?",
                    arrival_s=0.0,
                    num_tokens=1_200,
                    session_id=f"chat-{i % 2}",
                )
                for i in range(4)
            ]
        )
        assert len(responses) == 4
        assert all(r.ttft_s > 0 for r in responses)
        sim = backend.last_sim
        assert sim is not None and sim.pool is not None
        assert sim.pool.size == 2

    def test_generated_streams_keep_their_sessions_sticky(self, fitted_codec):
        """A ``WorkloadGenerator``'s session ids reach the sticky policy."""
        from repro.cluster import WorkloadGenerator
        from repro.serving.api import Driver

        spec = ServingSpec(chunk_tokens=256, gpu_workers=2, dispatch_policy="sticky")
        backend = build_backend(spec, codec=fitted_codec())
        workload = WorkloadGenerator(
            num_contexts=3, token_choices=(1_200,), num_sessions=4, arrival_rate_per_s=50.0
        )
        report = Driver(backend, workload).run(8)
        assert report.kv_served == 8
        bound = set(backend.last_sim.pool.dispatch._bindings)
        assert bound == {f"session-{i}" for i in range(4)}



# ------------------------------------------------------------------- figure 12
class TestFigure12Fleet:
    LEVELS = (1, 6)
    TOKENS = 1_600

    @classmethod
    def _run(cls, **kwargs):
        from repro.experiments.figure12 import run_figure12_concurrency

        return run_figure12_concurrency(
            concurrency_levels=cls.LEVELS, num_tokens=cls.TOKENS, **kwargs
        )

    def test_one_worker_reproduces_single_scheduler_curve(self):
        assert self._run().rows == self._run(gpu_workers=1).rows

    def test_fleet_strictly_reduces_queueing_at_high_load(self):
        single = self._run()
        fleet = self._run(gpu_workers=4)
        assert fleet.metadata["gpu_workers"] == 4
        n = max(self.LEVELS)
        queue_1 = single.filter(concurrent_requests=n, method="text")[0]["queueing_s"]
        queue_4 = fleet.filter(concurrent_requests=n, method="text")[0]["queueing_s"]
        assert queue_4 < queue_1

    def test_cli_rejects_gpu_workers_on_unsupported_experiment(self):
        from repro.experiments.common import experiment_cli

        with pytest.raises(SystemExit):
            experiment_cli(["figure12-context-length", "--gpu-workers", "2"])
