"""The injector's in-place component swaps against built backends."""

from __future__ import annotations

import pytest

from repro.faults import (
    Corruption,
    FaultInjector,
    FaultSchedule,
    GpuStraggler,
    LinkDegradation,
    NodeCrash,
    ResilienceManager,
    ScaledTrace,
)
from repro.llm import MISTRAL_7B, ComputeModel
from repro.network import ConstantTrace, gbps
from repro.serving.api import Driver, ServeRequest, ServingSpec, build_backend

CLUSTER_SPEC = ServingSpec(
    topology="cluster", num_nodes=3, replication=2, chunk_tokens=256, concurrency=2
)
SINGLE_SPEC = ServingSpec(chunk_tokens=256)


@pytest.fixture()
def cluster_injector(fitted_codec):
    def build(schedule):
        backend = build_backend(CLUSTER_SPEC, codec=fitted_codec())
        injector = FaultInjector(schedule, backend, ResilienceManager(None))
        return backend, injector

    return build


class TestScaledTrace:
    def test_scales_the_base_bandwidth(self):
        trace = ScaledTrace(ConstantTrace(gbps(2.0)), factor=0.25)
        assert trace.bandwidth_at(0.0) == pytest.approx(gbps(0.5))

    def test_rejects_out_of_range_factors(self):
        with pytest.raises(ValueError):
            ScaledTrace(ConstantTrace(gbps(1.0)), factor=1.0)


class TestValidation:
    def test_corruption_on_the_single_topology_degrades_the_read_to_text(self, fitted_codec):
        """One copy, so a failed integrity check has no replica to fail over to."""
        requests = [
            ServeRequest("ctx", "Q?", arrival_s=float(at_s), num_tokens=640) for at_s in (0, 2, 4)
        ]
        schedule = FaultSchedule([Corruption("ctx", at_s=1.0, node_id="node-0")])
        backend = build_backend(SINGLE_SPEC, codec=fitted_codec())
        with pytest.warns(UserWarning, match="closes the current simulation segment"):
            report = Driver(backend, requests, faults=schedule, reingest_on_miss=False).run()
        clean, corrupted, after = report.responses
        assert clean.used_kv_cache and clean.served_by == "node-0"
        assert not corrupted.used_kv_cache and corrupted.chunk_configs == ["text"]
        assert (corrupted.degraded, corrupted.degrade_cause) == (True, "corruption")
        assert corrupted.attempted_node_ids == ("node-0",)
        # The bad copy was evicted on detection: later reads find nothing stored.
        assert (after.degraded, after.degrade_cause) == (True, "evicted")
        assert backend.engine.cluster.stats.corruption_failures == 1
        assert report.fallback_causes == {"corruption": 1, "evicted": 1}

    def test_unknown_node_id_rejected_on_every_topology_when_the_driver_is_built(
        self, fitted_codec
    ):
        for spec in (SINGLE_SPEC, CLUSTER_SPEC):
            backend = build_backend(spec, codec=fitted_codec())
            for fault in (
                NodeCrash("node-99", at_s=1.0),
                LinkDegradation(at_s=1.0, until_s=2.0, factor=0.5, node_id="node-99"),
                Corruption("ctx", at_s=1.0, node_id="node-99"),
            ):
                with pytest.raises(KeyError, match="unknown node 'node-99'"):
                    Driver(backend, [], faults=FaultSchedule([fault]))

    def test_unknown_node_id_rejected_up_front(self, fitted_codec):
        schedule = FaultSchedule([NodeCrash("node-99", at_s=1.0)])
        backend = build_backend(CLUSTER_SPEC, codec=fitted_codec())
        with pytest.raises(KeyError):
            FaultInjector(schedule, backend, ResilienceManager(None))


class TestTiming:
    def test_due_and_apply_respect_the_clock(self, cluster_injector):
        schedule = FaultSchedule([NodeCrash("node-0", at_s=2.0, recover_at_s=5.0)])
        _, injector = cluster_injector(schedule)
        assert not injector.due(1.9)
        assert injector.due(2.0)
        applied = injector.apply_due(2.0)
        assert [event.action for event in applied] == ["node_down"]
        assert not injector.due(4.0)
        assert not injector.exhausted

    def test_drain_applies_everything_left(self, cluster_injector):
        schedule = FaultSchedule([NodeCrash("node-0", at_s=2.0, recover_at_s=5.0)])
        _, injector = cluster_injector(schedule)
        applied = injector.drain()
        assert [event.action for event in applied] == ["node_down", "node_up"]
        assert injector.exhausted


class TestComponentSwaps:
    def test_node_crash_marks_down_then_up(self, cluster_injector):
        schedule = FaultSchedule([NodeCrash("node-0", at_s=1.0, recover_at_s=2.0)])
        backend, injector = cluster_injector(schedule)
        node = backend.engine.cluster.node("node-0")
        injector.apply_due(1.0)
        assert not node.up
        injector.apply_due(2.0)
        assert node.up

    def test_link_degrade_swaps_trace_and_restore_swaps_back(self, cluster_injector):
        schedule = FaultSchedule(
            [LinkDegradation(at_s=1.0, until_s=2.0, factor=0.5, node_id="node-1")]
        )
        backend, injector = cluster_injector(schedule)
        link = backend.engine.cluster.node("node-1").link
        base = link.trace
        injector.apply_due(1.0)
        assert isinstance(link.trace, ScaledTrace)
        assert link.trace.base is base
        assert link.trace.bandwidth_at(0.0) == pytest.approx(base.bandwidth_at(0.0) * 0.5)
        injector.apply_due(2.0)
        assert link.trace is base

    def test_clusterwide_link_fault_degrades_every_node(self, cluster_injector):
        schedule = FaultSchedule([LinkDegradation(at_s=1.0, until_s=2.0, factor=0.5)])
        backend, injector = cluster_injector(schedule)
        injector.apply_due(1.0)
        cluster = backend.engine.cluster
        assert all(
            isinstance(node.link.trace, ScaledTrace) for node in cluster.nodes.values()
        )

    def test_gpu_straggler_swaps_compute_and_restores(self, fitted_codec):
        schedule = FaultSchedule([GpuStraggler(at_s=1.0, until_s=2.0, slowdown=4.0)])
        backend = build_backend(SINGLE_SPEC, codec=fitted_codec())
        injector = FaultInjector(schedule, backend, ResilienceManager(None))
        base = backend.engine._parts.compute
        injector.apply_due(1.0)
        proxy = backend.engine._parts.compute
        assert proxy is not base
        assert proxy.decode_delay(64) == pytest.approx(base.decode_delay(64) * 4.0)
        # The proxy must mirror the full ComputeModel signature (gpu_share).
        assert proxy.prefill_delay(64, gpu_share=0.5) == pytest.approx(
            base.prefill_delay(64, gpu_share=0.5) * 4.0
        )
        injector.apply_due(2.0)
        assert backend.engine._parts.compute is base

    def test_straggler_proxy_delegates_everything_else(self):
        from repro.faults.injector import _StragglerCompute

        base = ComputeModel(MISTRAL_7B)
        proxy = _StragglerCompute(base, slowdown=2.0)
        assert proxy.model is base.model
        assert proxy.gpu is base.gpu

    def test_corruption_poisons_a_replica(self, cluster_injector):
        schedule = FaultSchedule([Corruption("ctx-a", at_s=1.0)])
        backend, injector = cluster_injector(schedule)
        backend.ingest("ctx-a", 640)
        injector.apply_due(1.0)
        cluster = backend.engine.cluster
        replicas = cluster.replicas_for("ctx-a")
        assert (replicas[0], "ctx-a") in cluster.corrupted_replicas

    def test_corrupting_an_unstored_context_is_a_noop(self, cluster_injector):
        schedule = FaultSchedule([Corruption("ctx-missing", at_s=1.0)])
        backend, injector = cluster_injector(schedule)
        injector.apply_due(1.0)
        assert not backend.engine.cluster.corrupted_replicas


class TestOutcomes:
    def test_recovery_clears_the_outcome(self, cluster_injector):
        schedule = FaultSchedule([NodeCrash("node-0", at_s=1.0, recover_at_s=4.0)])
        _, injector = cluster_injector(schedule)
        injector.drain()
        (outcome,) = injector.finalize()
        assert outcome.fault_id == "fault-0"
        assert outcome.mttr_s == pytest.approx(3.0)

    def test_flap_reopens_the_fault_until_its_last_restore(self, cluster_injector):
        schedule = FaultSchedule(
            [LinkDegradation(at_s=0.0, until_s=3.0, factor=0.5, node_id="node-0", flaps=1)]
        )
        _, injector = cluster_injector(schedule)
        injector.apply_due(2.0)  # degrade, restore, degrade again
        assert injector.outcomes["fault-0"].cleared_at_s is None
        injector.drain()
        (outcome,) = injector.finalize()
        assert outcome.cleared_at_s == pytest.approx(3.0)

    def test_finalize_orders_outcomes_by_fault_index(self, cluster_injector):
        schedule = FaultSchedule(
            [
                NodeCrash("node-0", at_s=5.0, recover_at_s=6.0),
                GpuStraggler(at_s=1.0, until_s=2.0, slowdown=2.0),
            ]
        )
        _, injector = cluster_injector(schedule)
        injector.drain()
        outcomes = injector.finalize()
        assert [outcome.fault_id for outcome in outcomes] == ["fault-0", "fault-1"]
