"""Windowed time-series: bucketing, exact recombination, tracer rebuild."""

from types import SimpleNamespace

import pytest

from repro.metrics.stats import percentiles
from repro.telemetry import TimeSeriesRecorder, Tracer, auto_window_s


def response(arrival_s, ttft_s, *, kv=True, tier=None):
    return SimpleNamespace(
        arrival_s=arrival_s, ttft_s=ttft_s, used_kv_cache=kv, served_tier=tier
    )


class TestAutoWindow:
    def test_snaps_to_1_2_5_steps(self):
        assert auto_window_s(60.0) == 1.0
        assert auto_window_s(100.0) == 2.0
        assert auto_window_s(250.0) == 5.0
        assert auto_window_s(1.2) == 0.02

    def test_degenerate_durations_fall_back_to_one_second(self):
        assert auto_window_s(0.0) == 1.0
        assert auto_window_s(-3.0) == 1.0

    def test_rejects_non_positive_target(self):
        with pytest.raises(ValueError, match="target_windows"):
            auto_window_s(10.0, target_windows=0)


class TestBucketing:
    def test_requests_key_to_their_arrival_window(self):
        recorder = TimeSeriesRecorder(window_s=1.0)
        recorder.record_request(0.2, 0.1, used_kv_cache=True)
        recorder.record_request(1.9, 0.3, used_kv_cache=False)
        recorder.record_shed(1.5)
        windows = recorder.windows()
        assert [w.served for w in windows] == [1, 1]
        assert [w.shed for w in windows] == [0, 1]
        assert windows[1].arrivals == 2
        assert windows[0].kv_served == 1 and windows[1].text_served == 1

    def test_quiet_windows_are_materialized_not_skipped(self):
        recorder = TimeSeriesRecorder(window_s=1.0)
        recorder.record_request(0.5, 0.1, used_kv_cache=True)
        recorder.record_request(3.5, 0.1, used_kv_cache=True)
        windows = recorder.windows()
        assert [w.index for w in windows] == [0, 1, 2, 3]
        assert windows[1].arrivals == 0 and windows[1].ttft_samples == []
        assert windows[1].hit_ratio == 0.0

    def test_tier_counts_split_hot_and_cold(self):
        recorder = TimeSeriesRecorder(window_s=1.0)
        recorder.record_request(0.1, 0.1, used_kv_cache=True, served_tier="hot")
        recorder.record_request(0.2, 0.2, used_kv_cache=True, served_tier="cold")
        recorder.record_request(0.3, 0.9, used_kv_cache=False)
        window = recorder.windows()[0]
        assert window.hot_served == 1 and window.cold_served == 1
        assert window.text_served == 1 and window.served == 3
        assert window.hit_ratio == pytest.approx(2 / 3)

    def test_busy_intervals_split_across_window_boundaries(self):
        recorder = TimeSeriesRecorder(window_s=1.0)
        recorder.record_busy("gpu", 0.5, 2.0)  # covers [0.5, 2.5)
        windows = recorder.windows()
        assert windows[0].busy_s["gpu"] == pytest.approx(0.5)
        assert windows[1].busy_s["gpu"] == pytest.approx(1.0)
        assert windows[2].busy_s["gpu"] == pytest.approx(0.5)
        assert windows[1].utilization("gpu") == pytest.approx(1.0)

    def test_busy_interval_on_a_float_window_boundary_terminates(self):
        # 0.1 // 0.05 floors into the window that *ends* at 0.1; the split
        # loop must still make progress and bill the next window.
        recorder = TimeSeriesRecorder(window_s=0.05)
        recorder.record_busy("gpu", 0.1, 0.3)
        total = sum(w.busy_s.get("gpu", 0.0) for w in recorder.windows())
        assert total == pytest.approx(0.3)

    def test_queue_depth_keeps_the_window_peak(self):
        recorder = TimeSeriesRecorder(window_s=1.0)
        recorder.record_queue_depth("gpu", 0.1, 2)
        recorder.record_queue_depth("gpu", 0.9, 5)
        recorder.record_queue_depth("gpu", 0.95, 1)
        assert recorder.windows()[0].max_queue_depth["gpu"] == 5.0

    def test_extend_to_covers_trailing_quiet_time(self):
        recorder = TimeSeriesRecorder(window_s=1.0)
        recorder.record_request(0.5, 0.1, used_kv_cache=True)
        recorder.extend_to(4.2)
        assert len(recorder.windows()) == 5

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError, match="window_s"):
            TimeSeriesRecorder(window_s=0.0)


class TestConsistency:
    """The acceptance guarantee: windows recombine to the whole-run numbers."""

    RESPONSES = [
        response(0.1, 0.30, kv=True, tier="hot"),
        response(0.4, 0.10, kv=True, tier="cold"),
        response(1.2, 0.90, kv=False),
        response(1.7, 0.20, kv=True, tier="hot"),
        response(2.3, 0.55, kv=False),
        response(2.9, 0.15, kv=True, tier="hot"),
        response(3.3, 0.70, kv=True, tier="cold"),
    ]
    SHEDS = [1.5, 2.4]

    def test_single_window_matches_whole_run_exactly(self):
        recorder = TimeSeriesRecorder.from_run(
            self.RESPONSES, window_s=100.0, shed_times=self.SHEDS
        )
        assert len(recorder.windows()) == 1
        window = recorder.windows()[0]
        ttfts = [r.ttft_s for r in self.RESPONSES]
        # Samples are kept in recording order, so percentiles are the exact
        # values the RunReport's summarize_latencies would produce.
        p50, p95, p99 = percentiles(ttfts, (50.0, 95.0, 99.0))
        assert window.ttft_percentile(50.0) == p50
        assert window.ttft_percentile(95.0) == p95
        assert window.ttft_percentile(99.0) == p99
        assert window.served == 7 and window.shed == 2 and window.arrivals == 9
        assert window.kv_served == 5 and window.text_served == 2
        assert window.hit_ratio == 5 / 7

    def test_multi_window_counts_sum_and_percentiles_recombine(self):
        whole = TimeSeriesRecorder.from_run(
            self.RESPONSES, window_s=100.0, shed_times=self.SHEDS
        )
        split = TimeSeriesRecorder.from_run(
            self.RESPONSES, window_s=0.5, shed_times=self.SHEDS
        )
        windows = split.windows()
        assert len(windows) > 3
        assert sum(w.served for w in windows) == 7
        assert sum(w.shed for w in windows) == 2
        assert sum(w.kv_served for w in windows) == 5
        assert sum(w.hot_served for w in windows) == 3
        assert sum(w.cold_served for w in windows) == 2
        # Percentiles are order-insensitive: the windows' samples recombine
        # to the whole run's percentiles no matter how the run was windowed.
        qs = (50.0, 95.0, 99.0)
        recombined = [ttft for w in windows for ttft in w.ttft_samples]
        assert percentiles(recombined, qs) == percentiles(whole.windows()[0].ttft_samples, qs)


class TestFromTracer:
    def test_rebuilds_requests_sheds_and_resources(self):
        tracer = Tracer()
        root = tracer.span(
            "request a", track="request:0", start_s=0.2, dur_s=0.3, category="request"
        )
        root.annotate(used_kv_cache=True, tier="hot")
        miss = tracer.span(
            "request b", track="request:1", start_s=1.4, dur_s=0.8, category="request"
        )
        miss.annotate(used_kv_cache=False)
        # A child span must not be double-counted as a request.
        tracer.span(
            "transfer", track="request:0", start_s=0.2, dur_s=0.1,
            category="transfer", parent=root,
        )
        tracer.instant("shed", track="admission", at_s=0.9, category="admission")
        tracer.span("batch decode", track="gpu", start_s=0.5, dur_s=0.4, category="decode")
        tracer.sample("queue_depth", 3, track="gpu", at_s=0.6)
        tracer.advance_to(3.0)

        recorder = TimeSeriesRecorder.from_tracer(tracer, window_s=1.0)
        windows = recorder.windows()
        assert len(windows) == 3  # extends to tracer.now
        assert windows[0].served == 1 and windows[0].hot_served == 1
        assert windows[0].shed == 1
        assert windows[1].text_served == 1
        assert windows[1].ttft_samples == [0.8]
        assert windows[0].busy_s["gpu"] == pytest.approx(0.4)
        assert windows[0].max_queue_depth["gpu"] == 3.0
        # Request swimlanes never become resource lanes.
        assert {track for w in windows for track in [*w.busy_s, *w.max_queue_depth]} == {"gpu"}
