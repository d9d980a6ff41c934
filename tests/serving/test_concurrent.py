"""Tests for the event-driven concurrent serving subsystem.

The deterministic queueing tests pin the exact arithmetic of the simulation:
a two-request collision on a shared link and GPU must produce precisely the
queueing delay the resource model predicts, and a batched decode must beat
the same decodes run back to back.
"""

from __future__ import annotations

import pytest

from conftest import serve_one
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving import ServeRequest
from repro.serving.api import ServingSpec, build_backend
from repro.serving.concurrent import (
    ConcurrentLoadSimulator,
    DECODE,
    GpuScheduler,
    GpuTask,
    LoadStage,
    SimClock,
    StaticLoad,
)

TOKENS = 2_200


# --------------------------------------------------------------------- clock
class TestSimClock:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        seen: list[str] = []
        clock.schedule(2.0, lambda: seen.append("late"))
        clock.schedule(1.0, lambda: seen.append("early"))
        clock.schedule(1.0, lambda: seen.append("early-second"))
        end = clock.run()
        assert seen == ["early", "early-second", "late"]
        assert end == 2.0

    def test_callbacks_can_chain(self):
        clock = SimClock()
        seen: list[float] = []

        def first():
            seen.append(clock.now)
            clock.schedule_after(0.5, lambda: seen.append(clock.now))

        clock.schedule(1.0, first)
        clock.run()
        assert seen == [1.0, 1.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimClock().schedule_after(-0.1, lambda: None)


# ----------------------------------------------------------------------- gpu
class TestGpuScheduler:
    @staticmethod
    def _run(max_decode_batch: int, durations: list[float], batch_overhead: float = 0.2):
        """Block the GPU briefly so all decodes queue, then release them."""
        clock = SimClock()
        gpu = GpuScheduler(clock, max_decode_batch=max_decode_batch, batch_overhead=batch_overhead)
        finished: dict[int, float] = {}
        gpu.submit(
            GpuTask(request_id=99, kind="prefill", duration_s=0.1, on_complete=lambda *a: None)
        )
        for i, duration in enumerate(durations):
            gpu.submit(
                GpuTask(
                    request_id=i,
                    kind=DECODE,
                    duration_s=duration,
                    batch_key="node-0",
                    on_complete=lambda finish, busy, wait, i=i: finished.__setitem__(
                        i, finish
                    ),
                )
            )
        clock.run()
        return finished

    def test_batched_decode_beats_sequential(self):
        durations = [0.03, 0.04, 0.05]
        batched = self._run(max_decode_batch=8, durations=durations)
        sequential = self._run(max_decode_batch=1, durations=durations)
        assert max(batched.values()) < max(sequential.values())
        # The batch finishes together: longest member + overhead for the rest.
        expected = 0.1 + max(durations) + 0.2 * (sum(durations) - max(durations))
        assert max(batched.values()) == pytest.approx(expected)
        # Sequential decodes run back to back after the blocking prefill.
        assert max(sequential.values()) == pytest.approx(0.1 + sum(durations))

    def test_different_batch_keys_do_not_batch(self):
        clock = SimClock()
        gpu = GpuScheduler(clock, max_decode_batch=8)
        finished: dict[int, float] = {}
        gpu.submit(
            GpuTask(request_id=9, kind="prefill", duration_s=0.1, on_complete=lambda *a: None)
        )
        for i, key in enumerate(("node-0", "node-1")):
            gpu.submit(
                GpuTask(
                    request_id=i,
                    kind=DECODE,
                    duration_s=0.05,
                    batch_key=key,
                    on_complete=lambda finish, busy, wait, i=i: finished.__setitem__(
                        i, finish
                    ),
                )
            )
        clock.run()
        assert gpu.batches_run == 3  # prefill + one launch per node
        assert finished[1] == pytest.approx(finished[0] + 0.05)


# ------------------------------------------------------------ exact queueing
class TestExactQueueing:
    def test_two_request_collision_yields_expected_delay(self, compute_model):
        """Two text loads arriving together: the model predicts the waits exactly.

        Request B waits the full transfer time of A on the link, then
        ``prefill - transfer`` more for the GPU (A is still prefilling when
        B's bytes land), so B's queueing delay is exactly one prefill time.
        """
        bandwidth = gbps(3.0)
        link = NetworkLink(ConstantTrace(bandwidth))
        text_bytes = 4.5 * TOKENS
        transfer_s = text_bytes * 8.0 / bandwidth
        prefill_s = compute_model.prefill_delay(TOKENS)
        assert prefill_s > transfer_s  # the premise of the expected arithmetic

        simulator = ConcurrentLoadSimulator()
        for _ in range(2):
            simulator.add_request(
                0.0, link, StaticLoad.text_load(TOKENS, text_bytes, compute_model)
            )
        first, second = simulator.run()

        assert first.queueing_s == pytest.approx(0.0, abs=1e-12)
        assert first.total_s == pytest.approx(transfer_s + prefill_s, rel=1e-9)
        # B: link wait = transfer_s, GPU wait = prefill_s - transfer_s.
        assert second.queueing_s == pytest.approx(prefill_s, rel=1e-9)
        assert second.total_s == pytest.approx(transfer_s + 2 * prefill_s, rel=1e-9)

    def test_decomposition_is_exact(self, compute_model):
        link = NetworkLink(ConstantTrace(gbps(1.0)))
        simulator = ConcurrentLoadSimulator()
        for _ in range(3):
            simulator.add_request(
                0.0, link, StaticLoad.text_load(TOKENS, 4.5 * TOKENS, compute_model)
            )
        for timeline in simulator.run():
            assert timeline.total_s == pytest.approx(
                timeline.queueing_s
                + timeline.transfer_s
                + sum(stage.gpu_busy_s for stage in timeline.stages),
                rel=1e-12,
            )

    def test_admission_limit_holds_arrivals_fifo(self, compute_model):
        """With one slot, the second request starts only when the first is done."""
        link = NetworkLink(ConstantTrace(gbps(3.0)))
        simulator = ConcurrentLoadSimulator(admission_limit=1)
        for _ in range(2):
            simulator.add_request(
                0.0, link, StaticLoad.text_load(TOKENS, 4.5 * TOKENS, compute_model)
            )
        first, second = simulator.run()
        assert second.stages[0].transfer_start_s >= first.finish_s - 1e-9
        assert second.queueing_s == pytest.approx(first.total_s, rel=1e-9)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            ConcurrentLoadSimulator().run()

    def test_batched_decode_beats_sequential_end_to_end(self):
        """Same decode workload, batching on vs off: batching must win.

        Decode-heavy stages make the GPU the choke point; with batching off
        the four decodes serialize, with batching on they share one launch.
        """
        decode_s = 0.05

        def makespan(max_decode_batch: int) -> float:
            simulator = ConcurrentLoadSimulator(max_decode_batch=max_decode_batch)
            # Separate links so transfers overlap and the GPU is the choke.
            for _ in range(4):
                link = NetworkLink(ConstantTrace(gbps(3.0)))
                stage = LoadStage(
                    config="medium",
                    num_bytes=1e6,
                    gpu_kind=DECODE,
                    gpu_s=decode_s,
                    batch_key="node-0",
                )
                simulator.add_request(0.0, link, StaticLoad([stage]))
            return max(t.finish_s for t in simulator.run())

        transfer_s = 1e6 * 8.0 / gbps(3.0)
        # Batched: one launch of equal-length decodes; sequential: four.
        assert makespan(16) == pytest.approx(
            transfer_s + decode_s + 0.2 * 3 * decode_s, rel=1e-9
        )
        assert makespan(1) == pytest.approx(transfer_s + 4 * decode_s, rel=1e-9)
        assert makespan(16) < makespan(1)


# ------------------------------------------------------------------- backend
def _query(concurrent, context_id, question, **fields):
    """One request alone through the event engine."""
    return serve_one(concurrent, ServeRequest(context_id, question, **fields))


@pytest.fixture(scope="module")
def concurrent_backend(fitted_codec):
    backend = build_backend(ServingSpec(), codec=fitted_codec())
    backend.ingest("report-2023", TOKENS)
    return backend


class TestConcurrentBackend:
    def test_single_query_mirrors_engine(self, concurrent_backend):
        response = _query(concurrent_backend, "report-2023", "Summarise the revenue drivers.")
        assert response.used_kv_cache
        assert response.quality.relative_quality > 0.95
        assert response.ttft_s > 0
        # Alone on the link and GPU there is nothing to queue behind.
        assert response.queueing_s == pytest.approx(0.0, abs=1e-12)

    def test_ttft_monotone_in_concurrency(self, concurrent_backend):
        def mean_ttft(n: int) -> float:
            responses = concurrent_backend.run([ServeRequest("report-2023", "Any risks?")] * n)
            return sum(r.ttft_s for r in responses) / n

        ttfts = [mean_ttft(n) for n in (1, 2, 4)]
        assert all(b >= a - 1e-9 for a, b in zip(ttfts, ttfts[1:]))
        assert ttfts[-1] > ttfts[0]

    def test_concurrent_queries_queue(self, concurrent_backend):
        responses = concurrent_backend.run([ServeRequest("report-2023", "Any risks?")] * 4)
        assert len(responses) == 4
        assert all(r.used_kv_cache for r in responses)
        assert max(r.queueing_s for r in responses) > 0
        for response in responses:
            ttft = response.ttft
            assert response.ttft_s == pytest.approx(
                ttft.queueing_s + ttft.network_s + ttft.decode_s + ttft.compute_s
            )

    def test_unknown_context_falls_back_to_text(self, concurrent_backend):
        response = _query(concurrent_backend, "unknown-doc", "What?", num_tokens=1_500)
        assert not response.used_kv_cache
        assert response.chunk_configs == ["text"]

    def test_unknown_context_without_length_rejected(self, concurrent_backend):
        with pytest.raises(ValueError):
            _query(concurrent_backend, "unknown-doc-2", "What?")
        # A failed resolution leaves the backend serving.
        response = _query(concurrent_backend, "report-2023", "Still serving?")
        assert response.used_kv_cache

    def test_staggered_arrivals_reduce_queueing(self, concurrent_backend):
        together = concurrent_backend.run([ServeRequest("report-2023", "Q?")] * 3)
        spread = concurrent_backend.run(
            [ServeRequest("report-2023", "Q?", arrival_s=10.0 * i) for i in range(3)]
        )
        assert sum(r.queueing_s for r in spread) < sum(r.queueing_s for r in together)


class TestClusterConcurrency:
    @pytest.fixture(scope="class")
    def cluster_backend(self, fitted_codec):
        spec = ServingSpec(
            topology="cluster",
            num_nodes=3,
            replication=2,
            node_bandwidths_gbps=(3.0, 3.0, 3.0),
            chunk_tokens=1_024,
        )
        backend = build_backend(spec, codec=fitted_codec())
        backend.ingest("doc", TOKENS)
        return backend

    def test_co_arriving_requests_spread_over_replicas(self, cluster_backend):
        replicas = set(cluster_backend.cluster.replicas_for("doc"))
        responses = cluster_backend.run([ServeRequest("doc", "Q?")] * 2)
        served = {r.served_by for r in responses}
        # Queue-depth-aware selection sends the co-arriving pair to the two
        # different replicas instead of piling onto the ring-preferred one.
        assert served == replicas
        assert all(r.used_kv_cache for r in responses)

    def test_queue_depths_drain_after_run(self, cluster_backend):
        cluster_backend.run([ServeRequest("doc", "Q?")] * 2)
        assert all(
            node.queue_depth == 0 for node in cluster_backend.cluster.nodes.values()
        )


class TestColdTierConcurrency:
    TIER_GBPS = 1.0

    @pytest.fixture(scope="class")
    def tiered_backend(self, fitted_codec):
        probe = build_backend(ServingSpec(chunk_tokens=1_024), codec=fitted_codec())
        probe.ingest("probe", TOKENS)
        one = float(next(iter(probe.cluster.nodes.values())).store.storage_bytes())
        spec = ServingSpec(
            topology="tiered",
            num_nodes=2,
            replication=2,
            node_bandwidths_gbps=(3.0, 3.0),
            max_bytes_per_node=1.2 * one,
            cold_bytes_per_node=10 * one,
            tier_bandwidth_gbps=self.TIER_GBPS,
            chunk_tokens=1_024,
        )
        return build_backend(spec, codec=fitted_codec())

    def _demote_everywhere(self, backend, context_id: str) -> None:
        for node in backend.cluster.nodes.values():
            store = node.store
            if context_id in store.hot:
                stored = store.hot.peek_context(context_id)
                store.hot.evict(context_id)
                store.cold.store_prepared(stored)

    def test_cold_hit_pays_serialized_tier_transfer(self, tiered_backend):
        tiered_backend.ingest("cold-doc", TOKENS)
        self._demote_everywhere(tiered_backend, "cold-doc")
        response = _query(tiered_backend, "cold-doc", "Q?")
        assert response.used_kv_cache
        assert response.served_tier == "cold"
        assert response.tier_transfer_s > 0.0
        # The tier read is serialized inside the transfer component of the
        # queueing breakdown, never hidden under the serving-link stream.
        assert response.ttft.network_s >= response.tier_transfer_s
        # Promotion happened: the same context now serves hot and faster.
        again = _query(tiered_backend, "cold-doc", "Q?")
        assert again.served_tier == "hot"
        assert again.ttft_s < response.ttft_s
        assert again.tier_transfer_s == 0.0

    def test_cold_hit_beats_text_reprefill(self, tiered_backend):
        """Acceptance: a cold hit's TTFT beats losing the context outright."""
        tiered_backend.ingest("kept-doc", TOKENS)
        self._demote_everywhere(tiered_backend, "kept-doc")
        cold = _query(tiered_backend, "kept-doc", "Q?")
        assert cold.served_tier == "cold"
        text = _query(tiered_backend, "never-stored", "Q?", num_tokens=TOKENS)
        assert not text.used_kv_cache
        assert cold.ttft_s < text.ttft_s

    def test_repeat_submissions_promote_once(self, tiered_backend):
        tiered_backend.ingest("queue-doc", TOKENS)
        self._demote_everywhere(tiered_backend, "queue-doc")
        pair = tiered_backend.run([ServeRequest("queue-doc", "Q?")] * 2)
        cold_pair = [r for r in pair if r.served_tier == "cold"]
        # The first resolve promotes the context, so only the first submission
        # is a cold hit; the second rides the promoted hot copy.
        assert len(cold_pair) == 1
        assert cold_pair[0].tier_transfer_s > 0.0
        assert {r.served_tier for r in pair} == {"cold", "hot"}

    def test_concurrent_cold_hits_serialize_on_the_tier_channel(self, tiered_backend):
        """Two cold contexts on one node queue their tier reads FIFO."""
        tiered_backend.ingest("tier-q-a", TOKENS)
        tiered_backend.ingest("tier-q-b", TOKENS)
        self._demote_everywhere(tiered_backend, "tier-q-a")
        self._demote_everywhere(tiered_backend, "tier-q-b")
        # Force both onto one node so they share its tier link.
        cluster = tiered_backend.cluster
        only = cluster.ring.nodes_for("tier-q-a", 1)[0]
        for node_id in cluster.nodes:
            if node_id != only:
                cluster.mark_down(node_id)
        try:
            first, second = tiered_backend.run(
                [ServeRequest("tier-q-a", "Q?"), ServeRequest("tier-q-b", "Q?")]
            )
        finally:
            for node_id in cluster.nodes:
                cluster.mark_up(node_id)
        assert first.served_tier == second.served_tier == "cold"
        assert first.served_by == second.served_by == only
        # One of the pair waited for the other's tier read; that wait is
        # queueing, and it is at least as long as the winner's tier transfer.
        waits = sorted((first.queueing_s, second.queueing_s))
        tier_reads = sorted((first.tier_transfer_s, second.tier_transfer_s))
        assert tier_reads[0] > 0.0
        assert waits[1] >= tier_reads[0] * 0.99
