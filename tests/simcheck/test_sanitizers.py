"""Runtime sanitizers: the clock, the monitor, and the invariant checks."""

from __future__ import annotations

import heapq
from dataclasses import replace

import pytest

from repro.serving.api import Driver, ServeRequest, ServingSpec, build_backend, serve
from repro.serving.concurrent import SimClock
from repro.simcheck import (
    ClockSanitizer,
    SimcheckConfig,
    SimcheckError,
    SimcheckMonitor,
)
from repro.simcheck.invariants import (
    check_clock,
    check_span_breakdowns,
    check_store_capacity,
    check_tracer_tracks,
)
from repro.telemetry import TRANSFER, Tracer

SPEC = ServingSpec(model="mistral-7b", chunk_tokens=256)
REQUESTS = [
    ServeRequest("sanitized-doc", f"Q{i}?", arrival_s=0.05 * i, num_tokens=640)
    for i in range(4)
]


def corrupt_a_request_tree(tracer: Tracer) -> None:
    """Give the first request root an extra 1 ms child on a breakdown category."""
    root = next(root for root in tracer.root_spans() if root.category == "request")
    tracer.span(
        "injected",
        track=root.track,
        start_s=root.start_s,
        dur_s=1e-3,
        category=TRANSFER,
        parent=root,
    )


class TestSimClockClampCounter:
    """Satellite: the base clock counts clamped past-time schedules."""

    def test_past_schedule_is_clamped_and_counted(self):
        clock = SimClock()
        fired_at: list[float] = []
        clock.schedule(1.0, lambda: clock.schedule(0.5, lambda: fired_at.append(clock.now)))
        clock.run()
        assert clock.clamped_schedules == 1
        # The event still fired — at `now`, not in the past.
        assert fired_at == [1.0]

    def test_clean_run_counts_zero(self):
        clock = SimClock()
        clock.schedule(0.0, lambda: clock.schedule(1.0, lambda: None))
        clock.run()
        assert clock.clamped_schedules == 0


class TestClockSanitizer:
    def test_records_past_schedule_diagnostics(self):
        clock = ClockSanitizer()
        clock.schedule(2.0, lambda: clock.schedule(0.5, lambda: None))
        clock.run()
        assert len(clock.past_schedules) == 1
        record = clock.past_schedules[0]
        assert record.requested_s == 0.5
        assert record.now_s == 2.0
        assert record.slip_s == pytest.approx(1.5)
        assert clock.clamped_schedules == 1  # base-class counter still ticks

    def test_strict_raises_immediately(self):
        clock = ClockSanitizer(strict=True)
        clock.schedule(2.0, lambda: clock.schedule(0.5, lambda: None))
        with pytest.raises(SimcheckError, match="causality"):
            clock.run()

    def test_run_rejects_non_monotonic_heap(self):
        clock = ClockSanitizer()
        clock.schedule(1.0, lambda: None)
        # Corrupt the heap behind schedule()'s back: an event in the past
        # relative to where the loop will be once 1.0 has fired.
        def corrupt():
            heapq.heappush(clock._heap, (0.25, clock._tie_break(), lambda: None))

        clock.schedule(1.0, corrupt)
        with pytest.raises(SimcheckError, match="not monotonic"):
            clock.run()

    def test_perturbation_reorders_equal_timestamps_only(self):
        def firing_order(seed):
            clock = ClockSanitizer(perturb_seed=seed)
            order: list[str] = []
            for label in "abcdef":
                clock.schedule(1.0, lambda label=label: order.append(label))
            clock.schedule(0.5, lambda: order.append("early"))
            clock.run()
            return order

        fifo = firing_order(None)
        assert fifo == ["early", "a", "b", "c", "d", "e", "f"]
        shuffled = [firing_order(seed) for seed in range(1, 6)]
        # Distinct timestamps keep their order under every perturbation...
        assert all(order[0] == "early" for order in shuffled)
        # ...but at least one seed permutes the equal-time tie.
        assert any(order[1:] != fifo[1:] for order in shuffled)
        # And each seed is itself deterministic.
        assert firing_order(3) == firing_order(3)


class TestInvariantChecks:
    def test_check_clock_flags_clamps_with_worst_slip(self):
        clock = ClockSanitizer()
        clock.schedule(2.0, lambda: clock.schedule(0.5, lambda: None))
        clock.run()
        violations = check_clock(clock)
        assert len(violations) == 1
        assert violations[0].check == "clock"
        assert "worst slip" in violations[0].message

    def test_check_clock_passes_clean_clock(self):
        clock = ClockSanitizer()
        clock.schedule(1.0, lambda: None)
        clock.run()
        assert check_clock(clock) == []

    def test_negative_gauge_sample_is_flagged(self):
        tracer = Tracer()
        tracer.sample("queue_depth", -1.0, track="gpu", at_s=1.0)
        violations = check_tracer_tracks(tracer)
        assert any(v.check == "gauges" and "negative" in v.message for v in violations)

    def test_overlapping_resource_spans_are_flagged(self):
        tracer = Tracer()
        tracer.span("launch", track="gpu", start_s=0.0, dur_s=1.0)
        tracer.span("launch", track="gpu", start_s=0.5, dur_s=1.0)
        violations = check_tracer_tracks(tracer)
        assert any(v.check == "busy-time" for v in violations)

    def test_sequential_resource_spans_pass(self):
        tracer = Tracer()
        tracer.span("launch", track="gpu", start_s=0.0, dur_s=1.0)
        tracer.span("launch", track="gpu", start_s=1.0, dur_s=1.0)
        assert check_tracer_tracks(tracer) == []

    def test_corrupted_span_tree_is_rejected(self, fitted_codec):
        """Tamper one child span's duration: the breakdown check must notice."""
        tracer = Tracer()
        report = serve(replace(SPEC, concurrency=2), REQUESTS, tracer=tracer, codec=fitted_codec())
        clean_matched, clean = check_span_breakdowns(tracer, report.responses)
        assert clean == [] and clean_matched == len(REQUESTS)

        corrupt_a_request_tree(tracer)
        _, violations = check_span_breakdowns(tracer, report.responses)
        assert violations
        assert all(v.check == "spans" for v in violations)
        assert any("span sum" in v.message or "TTFT total" in v.message for v in violations)

    def test_missing_root_span_is_reported(self, fitted_codec):
        tracer = Tracer()
        report = serve(SPEC, REQUESTS[:1], tracer=tracer, codec=fitted_codec())
        for root in tracer.root_spans():
            if root.category == "request":
                root.args["context_id"] = "someone-else"
        matched, violations = check_span_breakdowns(tracer, report.responses)
        assert matched == 0
        assert any("no request root span" in v.message for v in violations)

    def test_store_over_capacity_is_flagged(self, fitted_codec):
        """Each topology's stores reach the check through ``engine.stores()``."""
        cluster = replace(SPEC, topology="cluster", num_nodes=2, replication=2)
        # The hot tier holds one 640-token context, so the second one demotes.
        tiered = replace(
            SPEC, topology="tiered", max_bytes_per_node=60e6, cold_bytes_per_node=400e6
        )
        requests = [
            ServeRequest(f"doc-{i}", "Q?", arrival_s=0.05 * i, num_tokens=640)
            for i in range(2)
        ]
        cases = [
            (SPEC, lambda store: store.hot, "store node 'node-0' hot tier holds"),
            (cluster, lambda store: store.hot, "store node 'node-0' hot tier holds"),
            (tiered, lambda store: store.hot, "store node 'node-0' hot tier holds"),
            (tiered, lambda store: store.cold, "store node 'node-0' cold tier holds"),
        ]
        for spec, pick, message in cases:
            backend = build_backend(spec, codec=fitted_codec())
            Driver(backend, requests, simcheck=False).run()
            store = next(iter(backend.stores().values()))
            if spec is tiered:
                store.flush_demotions()
            assert check_store_capacity(backend) == []
            pick(store).max_bytes = 1.0
            (violation,) = check_store_capacity(backend)
            assert violation.check == "capacity"
            assert violation.message.startswith(message)

    def test_real_backends_end_within_capacity(self, fitted_codec):
        for spec in (
            SPEC,
            replace(SPEC, topology="cluster", num_nodes=2, replication=2, concurrency=2),
        ):
            backend = build_backend(spec, codec=fitted_codec())
            Driver(backend, REQUESTS, simcheck=False).run()
            assert check_store_capacity(backend) == []


class TestDriverIntegration:
    def test_simcheck_true_attaches_clean_report(self, fitted_codec):
        backend = build_backend(replace(SPEC, concurrency=2), codec=fitted_codec())
        tracer = Tracer()
        report = Driver(backend, REQUESTS, tracer=tracer, simcheck=True).run()
        result = report.simcheck
        assert result is not None and not result.violations
        assert set(result.checks_run) == {"clock", "gauges", "spans", "capacity"}
        assert result.clocks == 1
        assert result.spans_matched == len(REQUESTS)
        assert result.past_schedules == 0
        assert "simcheck ok" in result.format()

    @pytest.mark.parametrize(
        "spec",
        [
            SPEC,
            replace(SPEC, concurrency=2),
            replace(SPEC, topology="cluster", num_nodes=2, replication=2, concurrency=2),
        ],
        ids=["single", "concurrent", "cluster"],
    )
    def test_span_breakdown_verified_on_every_backend(self, spec, fitted_codec):
        """Acceptance: span-sum == TTFT-breakdown holds on all three backends."""
        tracer = Tracer()
        backend = build_backend(spec, codec=fitted_codec())
        report = Driver(backend, REQUESTS, tracer=tracer, simcheck=True).run()
        assert not report.simcheck.violations
        assert "spans" in report.simcheck.checks_run
        assert report.simcheck.spans_matched == len(report.responses)

    def test_default_spec_overlap_is_on_the_resource_tracks(self, fitted_codec):
        """Overlapping arrivals on a spec that declares nothing occupy the link
        and the GPU where the strict busy <= elapsed and span-sum checks see them."""
        overlapping = [
            ServeRequest("sanitized-doc", f"Q{i}?", arrival_s=0.001 * i, num_tokens=640)
            for i in range(4)
        ]
        tracer = Tracer()
        backend = build_backend(SPEC, codec=fitted_codec())
        report = Driver(backend, overlapping, tracer=tracer, simcheck=True).run()
        assert not report.simcheck.violations
        assert {"gauges", "spans"} <= set(report.simcheck.checks_run)
        assert report.simcheck.spans_matched == len(overlapping)
        assert {"link:node-0", "gpu"} <= {span.track for span in tracer.spans}
        assert report.queueing.max_s > 0

    def test_simcheck_false_disables_everything(self, fitted_codec):
        report = Driver(build_backend(SPEC, codec=fitted_codec()), REQUESTS, simcheck=False).run()
        assert report.simcheck is None

    def test_untraced_run_skips_tracer_checks(self, fitted_codec):
        backend = build_backend(replace(SPEC, concurrency=2), codec=fitted_codec())
        report = Driver(backend, REQUESTS, simcheck=True).run()
        assert not report.simcheck.violations
        assert set(report.simcheck.checks_run) == {"clock", "capacity"}

    def test_runtime_default_reaches_prebuilt_drivers(self, monkeypatch, fitted_codec):
        from repro.simcheck import runtime

        # Neutralize the suite-wide autouse fixture so the control run below
        # really sees "no default configured".
        monkeypatch.setattr(runtime, "_default", None)
        monkeypatch.delenv("REPRO_SIMCHECK", raising=False)
        driver = Driver(build_backend(SPEC, codec=fitted_codec()), REQUESTS)
        monkeypatch.setattr(runtime, "_default", SimcheckConfig())
        inside = driver.run()
        monkeypatch.setattr(runtime, "_default", None)
        outside = driver.run()
        assert inside.simcheck is not None and not inside.simcheck.violations
        assert outside.simcheck is None

    def test_env_var_enables_default(self, monkeypatch, fitted_codec):
        from repro.simcheck import runtime

        monkeypatch.setattr(runtime, "_default", None)
        monkeypatch.setenv("REPRO_SIMCHECK", "1")
        report = Driver(build_backend(SPEC, codec=fitted_codec()), REQUESTS).run()
        assert report.simcheck is not None
        monkeypatch.setenv("REPRO_SIMCHECK", "0")
        report = Driver(build_backend(SPEC, codec=fitted_codec()), REQUESTS).run()
        assert report.simcheck is None

    def test_custom_config_respected(self, fitted_codec):
        config = SimcheckConfig(strict=False, check_capacity=False)
        report = Driver(build_backend(SPEC, codec=fitted_codec()), REQUESTS, simcheck=config).run()
        assert report.simcheck.checks_run == ["clock"]

    def test_invalid_simcheck_argument_rejected(self, fitted_codec):
        with pytest.raises(TypeError, match="simcheck"):
            Driver(build_backend(SPEC, codec=fitted_codec()), REQUESTS, simcheck="yes").run()


class TestMonitorStrictness:
    def make_failing_run(self, fitted_codec):
        """A finished run whose trace has been corrupted after the fact."""
        tracer = Tracer()
        report = serve(replace(SPEC, concurrency=2), REQUESTS, tracer=tracer, codec=fitted_codec())
        corrupt_a_request_tree(tracer)
        return tracer, report

    def test_strict_monitor_raises_on_violation(self, fitted_codec):
        tracer, report = self.make_failing_run(fitted_codec)
        monitor = SimcheckMonitor(SimcheckConfig(strict=True))
        with pytest.raises(SimcheckError, match="violation"):
            monitor.finalize(report, tracer=tracer)

    def test_lenient_monitor_attaches_findings(self, fitted_codec):
        tracer, report = self.make_failing_run(fitted_codec)
        monitor = SimcheckMonitor(SimcheckConfig(strict=False))
        result = monitor.finalize(report, tracer=tracer)
        assert result.violations
        assert report.simcheck is result
        assert "violation" in result.format()
