"""Tests for system, entropy, QoE and cluster-aggregate metrics."""

from __future__ import annotations

import pytest

from repro.metrics import (
    QueueingTTFTBreakdown,
    TTFTBreakdown,
    hit_ratio,
    slo_attainment,
    summarize_latencies,
    grouping_entropy_comparison,
    mean_opinion_score,
    slo_violation_rate,
)


class TestSystemMetrics:
    def test_breakdown_total(self):
        breakdown = QueueingTTFTBreakdown(network_s=1.0, decode_s=0.25, compute_s=0.5)
        assert breakdown.total_s == pytest.approx(1.75)

    def test_breakdown_negative_rejected(self):
        with pytest.raises(ValueError):
            TTFTBreakdown(network_s=-1.0, decode_s=0.0, compute_s=0.0)

    def test_slo_violation_rate(self):
        assert slo_violation_rate([0.1, 0.6, 1.2, 0.4], 0.5) == 0.5
        assert slo_violation_rate([0.1], 0.5) == 0.0
        with pytest.raises(ValueError):
            slo_violation_rate([0.1], 0.0)

    def test_slo_violation_rate_empty_warns(self):
        with pytest.warns(RuntimeWarning):
            assert slo_violation_rate([], 0.5) == 0.0


class TestEntropyMetrics:
    def test_grouping_comparison_insight3(self, kv):
        """Channel/layer grouping lowers entropy far more than token grouping."""
        entropies = grouping_entropy_comparison(kv.k)
        assert entropies["channel_layer"] < entropies["token"]
        assert entropies["channel"] < entropies["token"]
        assert entropies["channel_layer"] <= entropies["global"]
        assert (entropies["global"] - entropies["channel_layer"]) > 2 * (
            entropies["global"] - entropies["token"]
        )


class TestQoE:
    def test_fast_response_max_score(self):
        assert mean_opinion_score(0.2) == 5.0

    def test_monotone_in_ttft(self):
        scores = [mean_opinion_score(t) for t in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert scores == sorted(scores, reverse=True)

    def test_quality_degradation_lowers_mos(self):
        assert mean_opinion_score(1.0, relative_quality=0.8) < mean_opinion_score(1.0, 1.0)

    def test_bounded(self):
        assert 1.0 <= mean_opinion_score(1e4) <= 5.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mean_opinion_score(-1.0)
        with pytest.raises(ValueError):
            mean_opinion_score(1.0, relative_quality=1.5)


class TestClusterAggregates:
    def test_latency_summary_percentiles(self):
        samples = [0.1 * i for i in range(1, 101)]
        summary = summarize_latencies(samples)
        assert summary.count == 100
        assert summary.p50_s <= summary.p95_s <= summary.p99_s <= summary.max_s
        assert summary.p50_s == pytest.approx(5.05, abs=0.1)
        assert summary.max_s == pytest.approx(10.0)

    def test_slo_attainment_complements_violation_rate(self):
        ttfts = [0.5, 1.0, 1.5, 2.5]
        assert slo_attainment(ttfts, 2.0) == pytest.approx(
            1.0 - slo_violation_rate(ttfts, 2.0)
        )

    def test_hit_ratio(self):
        assert hit_ratio(3, 4) == pytest.approx(0.75)
        assert hit_ratio(0, 0) == 0.0
        with pytest.raises(ValueError):
            hit_ratio(5, 4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            summarize_latencies([-1.0])
        with pytest.raises(ValueError):
            slo_attainment([1.0], 0.0)

    def test_empty_samples_warn_with_defined_results(self):
        with pytest.warns(RuntimeWarning):
            summary = summarize_latencies([])
        assert summary.count == 0
        assert summary.mean_s == 0.0
        assert summary.p99_s == 0.0
        with pytest.warns(RuntimeWarning):
            assert slo_attainment([], 1.0) == 1.0
