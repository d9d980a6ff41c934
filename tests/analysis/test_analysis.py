"""Tests for the §5.1 insight analyses and the codec ablation."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ABLATION_VARIANTS,
    codec_ablation,
    delta_value_distribution,
    grouping_entropy_study,
    layer_sensitivity_study,
)


class TestInsight1:
    def test_deltas_more_concentrated(self, kv):
        distribution = delta_value_distribution(kv)
        assert distribution.variance_ratio > 2.0
        # The delta CDF dominates the original CDF (more mass near zero).
        points = [0.5, 1.0, 2.0]
        assert all(
            d >= o for d, o in zip(distribution.cdf("delta", points), distribution.cdf("original", points))
        )

    def test_bad_layer_index(self, kv):
        with pytest.raises(IndexError):
            delta_value_distribution(kv, layer=999)


class TestInsight2:
    def test_shallow_loss_hurts_most(self, llm, kv):
        rows = layer_sensitivity_study(llm, kv, num_groups=4)
        assert len(rows) == 4
        qualities = [row["quality"] for row in rows]
        assert qualities[0] < qualities[-1] - 0.1
        assert qualities[0] < 0.85
        assert qualities[-1] > 0.93

    def test_invalid_groups(self, llm, kv):
        with pytest.raises(ValueError):
            layer_sensitivity_study(llm, kv, num_groups=0)


class TestInsight3:
    def test_grouping_entropy_ordering(self, kv):
        entropies = grouping_entropy_study(kv)
        assert entropies["channel_layer"] < entropies["token"]
        assert entropies["layer"] < entropies["global"] + 1e-9


@pytest.fixture(scope="module")
def ablation_codecs(fitted_codec):
    """Each variant's offline profile, as Figure 15 takes it."""
    return {variant: fitted_codec(config=config) for variant, config in ABLATION_VARIANTS.items()}


class TestAblation:
    def test_all_variants_evaluated(self, kv, ablation_codecs, quality_model):
        points = codec_ablation(kv, ablation_codecs, quality_model)
        assert [p.variant for p in points] == list(ABLATION_VARIANTS)

    def test_ac_shrinks_and_full_design_best_quality(self, kv, ablation_codecs, quality_model):
        points = {p.variant: p for p in codec_ablation(kv, ablation_codecs, quality_model)}
        assert points["quant+ac"].bits_per_element < points["default-quant"].bits_per_element
        assert points["cachegen"].quality >= points["quant+ac"].quality
        assert points["cachegen"].quality >= points["quant+ac+change"].quality - 1e-6
