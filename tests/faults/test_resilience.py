"""Retry, hedge, breaker and report machinery of the self-healing layer."""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import (
    BreakerPolicy,
    CircuitBreaker,
    FaultOutcome,
    HedgePolicy,
    ResilienceManager,
    ResiliencePolicy,
    ResilienceReport,
    RetryPolicy,
)


class TestPolicyValidation:
    def test_retry_policy_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_hedge_policy_bounds(self):
        with pytest.raises(ValueError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=0)
        with pytest.raises(ValueError):
            HedgePolicy(initial_delay_s=-0.1)

    def test_breaker_policy_bounds(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(reset_after_s=0.0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3, reset_after_s=5.0))
        assert not breaker.record_failure(1.0)
        assert not breaker.record_failure(2.0)
        assert breaker.record_failure(3.0)  # the third one trips
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2, reset_after_s=5.0))
        breaker.record_failure(1.0)
        breaker.record_success()
        assert not breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_rejects_until_reset_then_half_opens(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, reset_after_s=5.0))
        breaker.record_failure(10.0)
        assert not breaker.allows(12.0)
        assert breaker.allows(15.0)  # reset elapsed: the probe is allowed
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, reset_after_s=5.0))
        breaker.record_failure(0.0)
        breaker.allows(6.0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens_without_new_trip(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, reset_after_s=5.0))
        breaker.record_failure(0.0)
        breaker.allows(6.0)
        breaker.record_failure(6.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1  # a failed probe restarts the timer, no new trip
        assert not breaker.allows(8.0)
        assert breaker.allows(11.5)


class TestBackoffDeterminism:
    def test_same_key_same_draw(self):
        first = ResilienceManager(ResiliencePolicy(seed=7))
        second = ResilienceManager(ResiliencePolicy(seed=7))
        assert first.backoff_s("ctx-a", 0) == second.backoff_s("ctx-a", 0)
        assert first.backoff_s("ctx-a", 1) == second.backoff_s("ctx-a", 1)

    def test_draws_vary_by_context_attempt_and_seed(self):
        manager = ResilienceManager(ResiliencePolicy(seed=7))
        other_seed = ResilienceManager(ResiliencePolicy(seed=8))
        assert manager.backoff_s("ctx-a", 0) != manager.backoff_s("ctx-b", 0)
        assert manager.backoff_s("ctx-a", 0) != other_seed.backoff_s("ctx-a", 0)

    def test_draw_order_does_not_matter(self):
        """The jitter is keyed, not a shared stream — replays may reorder."""
        forward = ResilienceManager(ResiliencePolicy(seed=3))
        backward = ResilienceManager(ResiliencePolicy(seed=3))
        contexts = ["ctx-a", "ctx-b", "ctx-c"]
        first = {c: forward.backoff_s(c, 0) for c in contexts}
        second = {c: backward.backoff_s(c, 0) for c in reversed(contexts)}
        assert first == second

    def test_backoff_grows_exponentially(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.0)
        )
        manager = ResilienceManager(policy)
        assert manager.backoff_s("ctx", 0) == pytest.approx(0.1)
        assert manager.backoff_s("ctx", 2) == pytest.approx(0.4)


class TestEvaluateRead:
    def _manager(self, **retry_kwargs):
        policy = ResiliencePolicy(
            retry=RetryPolicy(timeout_s=1.0, jitter=0.0, **retry_kwargs),
            hedge=None,
            breaker=None,
        )
        return ResilienceManager(policy)

    def test_fast_primary_served_untouched(self):
        outcome = self._manager().evaluate_read("ctx", "node-0", 0.2, [("node-1", 0.3)])
        assert outcome.node_id == "node-0"
        assert outcome.extra_delay_s == 0.0
        assert not outcome.degraded

    def test_slow_primary_retries_onto_fast_alternate(self):
        manager = self._manager()
        outcome = manager.evaluate_read("ctx", "node-0", 5.0, [("node-1", 0.2)])
        assert outcome.node_id == "node-1"
        assert outcome.retries == 1
        assert not outcome.degraded
        # The failed attempt costs its timeout plus the backoff.
        assert outcome.extra_delay_s >= 1.0
        assert manager.timeouts == 1

    def test_all_replicas_slow_degrades_instead_of_failing(self):
        manager = self._manager(max_attempts=3)
        outcome = manager.evaluate_read(
            "ctx", "node-0", 5.0, [("node-1", 5.0), ("node-2", 5.0)]
        )
        assert outcome.degraded

    def test_no_alternates_degrades_after_first_timeout(self):
        outcome = self._manager().evaluate_read("ctx", "node-0", 5.0, [])
        assert outcome.degraded
        assert outcome.retries == 0

    def test_hedge_launches_after_delay_and_faster_path_wins(self):
        policy = ResiliencePolicy(
            retry=None, hedge=HedgePolicy(initial_delay_s=0.5), breaker=None
        )
        manager = ResilienceManager(policy)
        outcome = manager.evaluate_read("ctx", "node-0", 2.0, [("node-1", 0.2)])
        assert outcome.hedged
        assert outcome.node_id == "node-1"  # 0.5 + 0.2 beats 2.0
        assert outcome.extra_delay_s == pytest.approx(0.5)
        assert manager.hedge_wins == 1

    def test_hedge_loses_to_a_primary_it_cannot_beat(self):
        policy = ResiliencePolicy(
            retry=None, hedge=HedgePolicy(initial_delay_s=0.5), breaker=None
        )
        manager = ResilienceManager(policy)
        outcome = manager.evaluate_read("ctx", "node-0", 0.6, [("node-1", 0.55)])
        assert outcome.hedged
        assert outcome.node_id == "node-0"
        assert outcome.extra_delay_s == 0.0
        assert manager.hedge_wins == 0

    def test_hedge_delay_tracks_observed_quantile(self):
        policy = ResiliencePolicy(
            retry=None,
            hedge=HedgePolicy(quantile=0.5, min_samples=4, initial_delay_s=9.0),
            breaker=None,
        )
        manager = ResilienceManager(policy)
        assert manager.hedge_delay_s() == 9.0  # too few samples yet
        for service in (0.1, 0.2, 0.3, 0.4):
            manager.observe_service(service)
        assert manager.hedge_delay_s() == pytest.approx(0.3)


class TestManagerBookkeeping:
    def test_bare_manager_is_inactive_but_counts_faults(self):
        manager = ResilienceManager(None, seed=5)
        assert not manager.active
        assert manager.node_allowed("node-0")
        assert manager.backoff_s("ctx", 0) == 0.0
        assert manager.seed == 5

    def test_counter_keys_match_report_fields(self):
        """The driver forwards counters as ResilienceReport kwargs verbatim."""
        fields = {f.name for f in dataclasses.fields(ResilienceReport)}
        assert set(ResilienceManager(None).counters()) <= fields

    def test_breaker_gate_counts_rejections(self):
        manager = ResilienceManager(
            ResiliencePolicy(breaker=BreakerPolicy(failure_threshold=1))
        )
        manager._breaker("node-0").record_failure(0.0)
        assert not manager.node_allowed("node-0")
        assert manager.breaker_blocked == 1
        assert manager.breaker_trips == 1


class TestResilienceReport:
    def test_ratio_math(self):
        report = ResilienceReport(offered=10, served=8, degraded=2, shed=2, failed=0)
        assert report.goodput == 6
        assert report.availability == pytest.approx(1.0)  # 8 of 8 non-shed

    def test_mttr_only_counts_cleared_faults(self):
        cleared = FaultOutcome("fault-0", "crash", "node-0", 1.0, cleared_at_s=5.0)
        censored = FaultOutcome("fault-1", "corruption", "ctx@replica", 2.0)
        report = ResilienceReport(
            offered=1, served=1, degraded=0, shed=0, failed=0, faults=(cleared, censored)
        )
        assert report.mean_mttr_s == pytest.approx(4.0)
        assert censored.mttr_s is None

    def test_format_table_mentions_uncleared_faults(self):
        censored = FaultOutcome("fault-0", "gpu", "gpu", 2.0)
        report = ResilienceReport(
            offered=1, served=1, degraded=0, shed=0, failed=0, faults=(censored,)
        )
        table = report.format_table()
        assert "availability" in table
        assert "not recovered in-run" in table
