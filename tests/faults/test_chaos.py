"""End-to-end chaos runs: determinism, conservation, repair, reporting."""

from __future__ import annotations

import json
import warnings
from dataclasses import replace

import pytest

from conftest import to_chrome_trace
from repro.cluster import WorkloadGenerator
from repro.faults import (
    Corruption,
    FaultSchedule,
    NodeCrash,
    ResiliencePolicy,
)
from repro.serving.api import ServeRequest, ServingSpec, serve
from repro.telemetry import Tracer

CLUSTER_SPEC = ServingSpec(
    topology="cluster",
    num_nodes=3,
    replication=2,
    chunk_tokens=256,
    concurrency=4,
    slo_s=1.0,
    adaptive=False,
    resilience=ResiliencePolicy(),
)

#: One crash window over a short Zipf replay — the canonical chaos shape.
CRASH = FaultSchedule([NodeCrash("node-0", at_s=2.0, recover_at_s=8.0)])


def workload():
    return WorkloadGenerator(
        num_contexts=6, zipf_alpha=1.0, arrival_rate_per_s=2.0, seed=11
    )


@pytest.fixture()
def chaos_run(fitted_codec):
    def run(spec=CLUSTER_SPEC, faults=CRASH, num_requests=24, tracer=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return serve(
                spec,
                workload=workload(),
                num_requests=num_requests,
                faults=faults,
                tracer=tracer,
                codec=fitted_codec(),
            )

    return run


class TestDeterminism:
    def test_same_schedule_same_seed_identical_resilience_reports(self, chaos_run):
        first = chaos_run()
        second = chaos_run()
        assert first.resilience is not None
        assert first.resilience == second.resilience
        assert first.segment_boundaries == second.segment_boundaries
        assert [r.ttft_s for r in first.responses] == [r.ttft_s for r in second.responses]

    def test_no_faults_means_byte_identical_traces(self, fitted_codec):
        """With no schedule the fault layer must add zero trace overhead."""
        spec = replace(CLUSTER_SPEC, resilience=None)
        exports = []
        for _ in range(2):
            tracer = Tracer()
            serve(
                spec, workload=workload(), num_requests=12, tracer=tracer, codec=fitted_codec()
            )
            exports.append(json.dumps(to_chrome_trace(tracer), sort_keys=True))
        assert exports[0] == exports[1]
        assert '"faults"' not in exports[0]

    def test_fault_instants_land_on_the_faults_track(self, chaos_run):
        tracer = Tracer()
        chaos_run(tracer=tracer)
        payload = json.dumps(to_chrome_trace(tracer))
        assert "node_down" in payload and "node_up" in payload
        assert "faults" in payload

    def test_failover_instants_carry_a_cause_label(self, chaos_run):
        """Crash-window failovers are visible in the trace, cause included."""
        tracer = Tracer()
        report = chaos_run(spec=replace(CLUSTER_SPEC, replication=1), tracer=tracer)
        events = to_chrome_trace(tracer)["traceEvents"]
        lookups = [
            event
            for event in events
            if event.get("name") in ("failover", "full_miss")
            and event.get("args", {}).get("cause")
        ]
        assert lookups
        assert any(e["args"]["cause"] == "node_down" for e in lookups)
        assert report.fallback_causes.get("node_down", 0) > 0


class TestConservation:
    """served + shed + failed == offered on every backend, faults included."""

    def assert_conserved(self, report):
        assert (
            len(report.responses) + report.shed + report.hard_failures
            == report.num_requests
        )
        assert report.hard_failures == 0
        assert report.degraded <= len(report.responses)

    @pytest.mark.parametrize(
        "spec",
        [
            ServingSpec(chunk_tokens=256, concurrency=2, adaptive=False),
            ServingSpec(
                topology="tiered",
                num_nodes=2,
                replication=2,
                max_bytes_per_node=2e8,
                cold_bytes_per_node=8e8,
                chunk_tokens=256,
                concurrency=2,
                adaptive=False,
            ),
            ServingSpec(
                topology="cluster",
                num_nodes=3,
                replication=2,
                chunk_tokens=256,
                concurrency=2,
                adaptive=False,
            ),
        ],
        ids=["single", "tiered", "cluster"],
    )
    def test_mid_run_crash_and_recovery_conserves_requests(self, spec, chaos_run):
        node = "node-0" if spec.topology != "single" else "node-0"
        faults = FaultSchedule([NodeCrash(node, at_s=2.0, recover_at_s=6.0)])
        report = chaos_run(spec=spec, faults=faults, num_requests=20)
        self.assert_conserved(report)
        assert report.resilience is not None
        assert report.resilience.offered == 20
        assert report.resilience.availability == 1.0

    def test_single_node_crash_degrades_to_text_not_failure(self, chaos_run):
        spec = ServingSpec(chunk_tokens=256, concurrency=2, adaptive=False)
        faults = FaultSchedule([NodeCrash("node-0", at_s=1.0)])  # never recovers
        report = chaos_run(spec=spec, faults=faults, num_requests=12)
        self.assert_conserved(report)
        assert report.degraded > 0
        assert report.fallback_causes.get("node_down", 0) > 0


class TestSegments:
    def test_fault_boundaries_recorded_and_warned_once(self, fitted_codec):
        with pytest.warns(UserWarning, match="segment"):
            report = serve(
                CLUSTER_SPEC,
                workload=workload(),
                num_requests=24,
                faults=CRASH,
                codec=fitted_codec(),
            )
        assert report.segment_boundaries  # the crash and the recovery
        assert all(0 <= index < 24 for index in report.segment_boundaries)

    def test_no_faults_no_boundaries(self, fitted_codec):
        report = serve(
            replace(CLUSTER_SPEC, resilience=None),
            workload=workload(),
            num_requests=8,
            codec=fitted_codec(),
        )
        assert report.segment_boundaries == ()


class TestRepairAndCorruption:
    def test_crash_window_triggers_re_replication(self, chaos_run):
        report = chaos_run()
        resilience = report.resilience
        assert resilience.repairs_completed > 0
        assert resilience.repair_bytes > 0.0
        # The crash fault cleared (node_up), so its MTTR is the window width.
        assert resilience.faults[0].mttr_s == pytest.approx(6.0)

    def test_corrupted_replica_detected_on_read_and_repaired(self, chaos_run):
        faults = FaultSchedule([Corruption("ctx-0000", at_s=2.0)])
        report = chaos_run(faults=faults)
        resilience = report.resilience
        assert resilience.corruptions_detected == 1
        assert resilience.repairs_completed >= 1
        assert report.hard_failures == 0
        # Detection + repair resolves the fault's MTTR in-run.
        assert resilience.faults[0].mttr_s is not None

    def test_replication_two_keeps_goodput_through_the_crash(self, chaos_run):
        """The experiment's acceptance shape, at test scale."""
        degraded_by_replication = {}
        for replication in (1, 2):
            spec = replace(CLUSTER_SPEC, replication=replication)
            report = chaos_run(spec=spec)
            degraded_by_replication[replication] = report.degraded
        assert degraded_by_replication[2] < degraded_by_replication[1]
        assert degraded_by_replication[2] == 0
