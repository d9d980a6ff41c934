"""``report.timeseries`` / ``report.alerts``: consistency and the failure story."""

from __future__ import annotations

import pytest

from repro.serving.api import (
    Driver,
    ServeRequest,
    ServingSpec,
    TokenBucketAdmission,
    build_backend,
    serve,
)
from repro.telemetry import SLOObjective, render_dashboard

SPEC = ServingSpec(model="mistral-7b", chunk_tokens=256)


def make_requests(n=16, rate=5.0, context="ctx"):
    return [
        ServeRequest(context, f"q{i}", arrival_s=i / rate, num_tokens=800)
        for i in range(n)
    ]


class TestRunReportConsistency:
    """The windowed series must recombine to exactly the RunReport numbers."""

    @pytest.fixture(scope="class")
    def report(self):
        return serve(SPEC, make_requests(), window_s=1e6)

    def test_single_window_counts_match_the_report(self, report):
        (window,) = report.timeseries.windows()
        assert window.served == len(report.responses)
        assert window.kv_served == report.kv_served
        assert window.text_served == report.text_served
        assert window.shed == report.shed
        assert window.arrivals == report.num_requests
        assert window.hit_ratio == report.hit_ratio

    def test_single_window_percentiles_are_bit_exact(self, report):
        totals = report.timeseries.totals()
        assert totals["ttft_p50_s"] == report.ttft.p50_s
        assert totals["ttft_p95_s"] == report.ttft.p95_s
        assert totals["ttft_p99_s"] == report.ttft.p99_s
        assert totals["ttft_mean_s"] == report.ttft.mean_s
        assert totals["ttft_max_s"] == report.ttft.max_s
        assert totals["hit_ratio"] == report.hit_ratio

    def test_multi_window_sums_match_the_report(self, report):
        split = serve(SPEC, make_requests(), window_s=0.5)
        windows = split.timeseries.windows()
        assert len(windows) > 1
        assert sum(w.served for w in windows) == len(split.responses)
        assert sum(w.kv_served for w in windows) == split.kv_served
        assert sum(w.shed for w in windows) == split.shed
        assert sum(w.arrivals for w in windows) == split.num_requests
        # Same run, different windowing: identical recombined totals.
        assert split.timeseries.totals() == report.timeseries.totals()

    def test_shed_arrivals_are_windowed_too(self):
        report = serve(
            SPEC,
            make_requests(n=12, rate=20.0),
            admission=TokenBucketAdmission(rate_per_s=4.0, burst=1),
            window_s=0.25,
        )
        assert report.shed > 0
        windows = report.timeseries.windows()
        assert sum(w.shed for w in windows) == report.shed
        assert sum(w.arrivals for w in windows) == report.num_requests

    def test_untraced_default_still_builds_a_timeseries(self, report):
        assert report.timeseries is not None
        assert "timeseries" in report.format_table()


class TestNodeFailureObservability:
    """The acceptance scenario: a node failure is visible end to end —
    windowed TTFT spike, burn-rate alert bracketing it, dashboard carrying
    both."""

    NUM = 60
    RATE = 10.0  # arrivals per second
    WINDOW = 0.5
    FAIL = NUM // 3  # request index 20 -> t=2.0s
    RECOVER = 2 * NUM // 3  # request index 40 -> t=4.0s
    CONTEXT = "ops-context"

    def spec(self):
        return ServingSpec(
            model="mistral-7b",
            chunk_tokens=256,
            topology="cluster",
            num_nodes=2,
            replication=1,
            concurrency=2,
        )

    @pytest.fixture(scope="class")
    def runs(self):
        reqs = make_requests(self.NUM, self.RATE, self.CONTEXT)
        healthy = Driver(
            build_backend(self.spec()), list(reqs), window_s=self.WINDOW
        ).run()
        slo = SLOObjective("ttft", ttft_s=2.0 * healthy.ttft.p99_s, target=0.9)
        # Placement is deterministic: a scratch backend reveals which node
        # holds the context's only replica.
        scratch = build_backend(self.spec())
        scratch.ingest(self.CONTEXT, 640)
        primary = scratch.engine.cluster.replicas_for(self.CONTEXT)[0]
        degraded = Driver(
            build_backend(self.spec()),
            list(reqs),
            node_failures={self.FAIL: primary},
            node_recoveries={self.RECOVER: primary},
            window_s=self.WINDOW,
            slos=[slo],
        ).run()
        return healthy, degraded, slo

    @property
    def fail_s(self):
        return self.FAIL / self.RATE

    @property
    def recover_s(self):
        return self.RECOVER / self.RATE

    def spike_window(self, degraded):
        return max(
            degraded.timeseries.windows(),
            key=lambda w: w.ttft_percentile(99.0) if w.ttft_samples else 0.0,
        )

    def test_ttft_p99_spikes_in_the_failure_window(self, runs):
        healthy, degraded, _ = runs
        spike = self.spike_window(degraded)
        assert spike.ttft_percentile(99.0) > 5.0 * healthy.ttft.p99_s
        # The worst window lies inside the outage, and the hit ratio is gone
        # there: every request degraded to text re-prefill.
        assert self.fail_s <= spike.start_s < self.recover_s
        assert spike.hit_ratio < healthy.hit_ratio

    def test_burn_rate_alert_brackets_the_outage(self, runs):
        _, degraded, _ = runs
        burns = [a for a in degraded.alerts if a.kind == "burn-rate"]
        assert burns, f"no burn-rate alert in {degraded.alerts}"
        for alert in burns:
            assert alert.severity in {"page", "ticket"}
            assert self.fail_s <= alert.fired_at_s <= self.recover_s + self.WINDOW
            assert alert.resolved_at_s is not None
            assert alert.resolved_at_s > alert.fired_at_s
            assert alert.resolved_at_s >= self.recover_s

    def test_report_table_narrates_the_alerts(self, runs):
        _, degraded, _ = runs
        table = degraded.format_table()
        assert "timeseries" in table
        assert "alert" in table and "fired" in table

    def test_dashboard_shows_the_spike_and_the_alert(self, runs):
        _, degraded, slo = runs
        html = render_dashboard(
            degraded.timeseries,
            alerts=degraded.alerts,
            objectives=[slo],
            title="Node failure",
        )
        spike = self.spike_window(degraded)
        p99_ms = spike.ttft_percentile(99.0) * 1000.0
        assert f'data-ttft-p99-ms="{p99_ms:.1f}"' in html
        burn = next(a for a in degraded.alerts if a.kind == "burn-rate")
        assert f'data-alert-name="{burn.name}"' in html
        assert f'data-fired-at-s="{burn.fired_at_s:g}"' in html
        assert f'data-resolved-at-s="{burn.resolved_at_s:g}"' in html
