"""SLO objectives, burn-rate alerting, and structural detectors."""

import pytest

from repro.telemetry import (
    AlertEngine,
    BurnRateRule,
    HitRatioCollapse,
    QueueDepthBuildup,
    SLOObjective,
    ShedStorm,
    TimeSeriesRecorder,
    default_burn_rules,
    default_detectors,
)


def build_windows(ttfts_per_window, *, window_s=1.0, shed_per_window=None):
    """Materialize windows from a list of per-window TTFT sample lists."""
    recorder = TimeSeriesRecorder(window_s=window_s)
    for i, ttfts in enumerate(ttfts_per_window):
        at = i * window_s + 0.5 * window_s
        for ttft in ttfts:
            recorder.record_request(at, ttft, used_kv_cache=True)
        for _ in range((shed_per_window or {}).get(i, 0)):
            recorder.record_shed(at)
    recorder.extend_to(len(ttfts_per_window) * window_s - 1e-9)
    return recorder.windows()


GOOD = [0.1] * 10
BAD = [1.0] * 10


class TestSLOObjective:
    def test_error_budget_and_events(self):
        objective = SLOObjective("ttft", ttft_s=0.5, target=0.9)
        assert objective.error_budget == pytest.approx(0.1)
        (window,) = build_windows([[0.1, 0.2, 0.8, 1.5]], shed_per_window={0: 2})
        bad, total = objective.events(window)
        assert (bad, total) == (4, 6)  # 2 violations + 2 sheds

    def test_shed_can_be_excluded(self):
        objective = SLOObjective("ttft", ttft_s=0.5, target=0.9, include_shed=False)
        (window,) = build_windows([[0.1, 0.8]], shed_per_window={0: 3})
        assert objective.events(window) == (1, 2)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="ttft_s"):
            SLOObjective("ttft", ttft_s=0.0)
        with pytest.raises(ValueError, match="target"):
            SLOObjective("ttft", ttft_s=0.5, target=1.0)


class TestBurnRules:
    def test_wall_clock_defaults_follow_sre_handbook(self):
        rules = default_burn_rules()
        by_name = {r.name: r for r in rules}
        assert by_name["fast-burn"].long_s == 3600.0
        assert by_name["fast-burn"].max_burn_rate == 14.4
        assert by_name["fast-burn"].severity == "page"
        assert by_name["slow-burn"].long_s == 21600.0
        assert by_name["slow-burn"].severity == "ticket"

    def test_short_runs_scale_rules_to_the_window(self):
        rules = default_burn_rules(window_s=0.5)
        by_name = {r.name: r for r in rules}
        assert by_name["fast-burn"].long_s == 2.0
        assert by_name["fast-burn"].short_s == 0.5
        assert by_name["slow-burn"].long_s == 6.0

    def test_rule_validates_window_ordering(self):
        with pytest.raises(ValueError, match="short_s"):
            BurnRateRule("bad", long_s=1.0, short_s=2.0, max_burn_rate=1.0)


class TestBurnRateAlerts:
    # target=0.9 -> budget 0.1; an all-bad window burns at rate 10.
    OBJECTIVE = SLOObjective("ttft", ttft_s=0.5, target=0.9)
    RULE = BurnRateRule("burn", long_s=2.0, short_s=1.0, max_burn_rate=8.0)

    def alert_engine(self):
        return AlertEngine([self.OBJECTIVE], rules=[self.RULE], detectors=())

    def test_fires_and_resolves_on_the_simulated_clock(self):
        # w0,w1 good; w2,w3 bad; w4 good. The long (2-window) burn first
        # reaches 10 >= 8 once w2 and w3 are both bad -> fires at 4.0s, and
        # drops once w4 lands -> resolves at 5.0s.
        windows = build_windows([GOOD, GOOD, BAD, BAD, GOOD])
        (alert,) = self.alert_engine().evaluate(windows)
        assert alert.kind == "burn-rate"
        assert alert.name == "ttft:burn"
        assert alert.fired_at_s == 4.0
        assert alert.resolved_at_s == 5.0
        assert alert.peak == pytest.approx(10.0)

    def test_still_active_alert_has_no_resolved_instant(self):
        windows = build_windows([GOOD, GOOD, BAD, BAD])
        (alert,) = self.alert_engine().evaluate(windows)
        assert alert.fired_at_s == 4.0
        assert alert.resolved_at_s is None

    def test_requires_both_long_and_short_windows_burning(self):
        # A single bad window satisfies the short burn but the long
        # (2-window) burn is only 5 < 8, so nothing fires.
        windows = build_windows([GOOD, BAD, GOOD, GOOD])
        assert self.alert_engine().evaluate(windows) == []

    def test_separate_episodes_become_separate_alerts(self):
        # At w0 only one window exists, so the clamped long burn already
        # reaches 10 -> the first episode fires at 1.0s.
        windows = build_windows([BAD, BAD, GOOD, GOOD, BAD, BAD, GOOD])
        alerts = self.alert_engine().evaluate(windows)
        assert [a.fired_at_s for a in alerts] == [1.0, 6.0]
        assert [a.resolved_at_s for a in alerts] == [3.0, 7.0]

    def test_quiet_run_raises_no_alerts(self):
        windows = build_windows([GOOD, GOOD, GOOD])
        assert self.alert_engine().evaluate(windows) == []
        assert self.alert_engine().evaluate([]) == []


class TestDetectors:
    def test_queue_depth_buildup_needs_consecutive_windows(self):
        detector = QueueDepthBuildup(min_depth=4.0, consecutive=2)
        recorder = TimeSeriesRecorder(window_s=1.0)
        for at, depth in [(0.5, 5), (1.5, 6), (2.5, 1), (3.5, 7)]:
            recorder.record_queue_depth("gpu", at, depth)
        (alert,) = detector.evaluate(recorder.windows())
        assert alert.kind == "queue-depth"
        assert alert.fired_at_s == 2.0  # end of the 2nd consecutive deep window
        assert alert.resolved_at_s == 3.0
        # the lone deep window at t=3.5 never reaches 2 consecutive

    def test_hit_ratio_collapse_compares_to_trailing_baseline(self):
        recorder = TimeSeriesRecorder(window_s=1.0)
        hits = [(0, True)] * 3 + [(1, True)] * 3 + [(2, True)] * 3
        misses = [(3, False)] * 4 + [(4, False)] * 4
        recovered = [(5, True)] * 3
        for idx, kv in hits + misses + recovered:
            recorder.record_request(idx + 0.5, 0.1, used_kv_cache=kv)
        (alert,) = HitRatioCollapse(min_served=3).evaluate(recorder.windows())
        assert alert.kind == "hit-ratio"
        assert alert.fired_at_s == 4.0
        assert alert.resolved_at_s == 6.0

    def test_shed_storm(self):
        windows = build_windows(
            [GOOD, [0.1], GOOD], shed_per_window={1: 6}
        )
        (alert,) = ShedStorm(min_shed=5, min_ratio=0.5).evaluate(windows)
        assert alert.kind == "shed-storm"
        assert alert.fired_at_s == 2.0
        assert alert.resolved_at_s == 3.0
        assert alert.peak == 6.0

    def test_default_detectors_cover_all_three_signals(self):
        kinds = {type(d).__name__ for d in default_detectors()}
        assert kinds == {"QueueDepthBuildup", "HitRatioCollapse", "ShedStorm"}


class TestAlertEngine:
    def test_alerts_sorted_by_fire_time_then_name(self):
        objective = SLOObjective("ttft", ttft_s=0.5, target=0.9)
        rules = [
            BurnRateRule("a-burn", long_s=2.0, short_s=1.0, max_burn_rate=8.0),
            BurnRateRule("b-burn", long_s=2.0, short_s=1.0, max_burn_rate=8.0),
        ]
        windows = build_windows([GOOD, BAD, BAD, GOOD])
        alerts = AlertEngine([objective], rules=rules, detectors=()).evaluate(windows)
        assert [a.name for a in alerts] == ["ttft:a-burn", "ttft:b-burn"]

    def test_empty_engine_is_silent(self):
        windows = build_windows([BAD, BAD])
        assert AlertEngine(detectors=()).evaluate(windows) == []

    def test_default_rules_scale_to_observed_window_width(self):
        # No explicit rules: the engine derives burn rules from the window
        # width, so a sustained outage on a sub-second run still alerts.
        objective = SLOObjective("ttft", ttft_s=0.5, target=0.9)
        windows = build_windows([GOOD] * 2 + [BAD] * 12 + [GOOD] * 2)
        alerts = AlertEngine([objective], detectors=()).evaluate(windows)
        by_name = {a.name: a for a in alerts}
        fast = by_name["ttft:fast-burn"]
        assert fast.kind == "burn-rate" and fast.severity == "page"
        assert fast.resolved_at_s is not None
