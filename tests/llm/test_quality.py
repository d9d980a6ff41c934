"""Tests for the generation-quality surrogate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import QualityModel

LAYERS = 32


@pytest.fixture(scope="module")
def model() -> QualityModel:
    return QualityModel(num_layers=LAYERS)


class TestLayerSensitivity:
    def test_weights_sum_to_one(self, model):
        assert model.layer_sensitivity().sum() == pytest.approx(1.0)

    def test_shallow_layers_weigh_more(self, model):
        weights = model.layer_sensitivity()
        assert weights[0] > 5 * weights[-1]

    def test_monotone_decreasing(self, model):
        assert np.all(np.diff(model.layer_sensitivity()) <= 0)

    def test_single_layer_model(self):
        assert QualityModel(num_layers=1).layer_sensitivity().sum() == pytest.approx(1.0)

    def test_shallow_loss_hurts_more(self, model):
        """Insight 2: the same distortion hurts more in shallow layers."""
        shallow = np.zeros(LAYERS)
        shallow[:4] = 0.5
        deep = np.zeros(LAYERS)
        deep[-4:] = 0.5
        assert model.relative_quality("qa_accuracy", shallow) < model.relative_quality(
            "qa_accuracy", deep
        )


class TestScoring:
    def test_zero_distortion_is_lossless(self, model):
        quality = model.score("qa_accuracy", np.zeros(LAYERS))
        assert quality.relative_quality == pytest.approx(1.0)
        assert quality.value == pytest.approx(quality.base_value)

    def test_monotone_in_distortion(self, model):
        values = [
            model.relative_quality("qa_accuracy", np.full(LAYERS, d)) for d in (0.0, 0.05, 0.2, 1.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_perplexity_increases_with_distortion(self, model):
        clean = model.score("perplexity", np.zeros(LAYERS))
        dirty = model.score("perplexity", np.full(LAYERS, 0.5))
        assert dirty.value > clean.value
        assert dirty.relative_quality < 1.0

    def test_unknown_task_rejected(self, model):
        with pytest.raises(ValueError):
            model.score("translation", np.zeros(LAYERS))

    def test_wrong_layer_count_rejected(self, model):
        with pytest.raises(ValueError):
            model.score("qa_accuracy", np.zeros(LAYERS + 1))

    def test_negative_distortion_rejected(self, model):
        with pytest.raises(ValueError):
            model.score("qa_accuracy", np.full(LAYERS, -0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_distortion_rejected(self, bad):
        """NaN used to pass the non-negativity check and score ``nan`` silently."""
        with pytest.raises(ValueError, match="finite"):
            QualityModel(4).score("qa_accuracy", [0.1, bad, 0.0, 0.0])

    def test_custom_base_values(self):
        model = QualityModel(num_layers=4, base_values={"qa_f1": 0.5})
        assert model.score("qa_f1", np.zeros(4)).value == pytest.approx(0.5)


class TestTokenRetention:
    def test_full_retention_no_penalty(self, model):
        assert model.token_retention_penalty(1.0, 1.0) == pytest.approx(1.0)

    def test_coverage_dominates_keep_fraction(self, model):
        heavy_hitters = model.token_retention_penalty(0.4, 0.95)
        random_drop = model.token_retention_penalty(0.9, 0.6)
        assert heavy_hitters > random_drop

    @pytest.mark.parametrize("keep,cov", [(0.0, 1.0), (1.5, 1.0), (0.5, -0.1), (0.5, 1.1)])
    def test_invalid_arguments(self, model, keep, cov):
        with pytest.raises(ValueError):
            model.token_retention_penalty(keep, cov)

    def test_calibration_h2o_vs_llmlingua(self, model):
        """H2O-style selection (high coverage) loses ~2-3%, LLMLingua-style ~6%."""
        h2o = model.relative_quality("qa_accuracy", np.zeros(LAYERS), 0.45, 0.96)
        lingua = model.relative_quality("qa_accuracy", np.zeros(LAYERS), 0.79, 0.79)
        assert 0.95 < h2o < 1.0
        assert 0.90 < lingua < h2o


@settings(max_examples=30, deadline=None)
@given(
    distortion=st.floats(0.0, 2.0),
    keep=st.floats(0.05, 1.0),
    coverage=st.floats(0.0, 1.0),
    task=st.sampled_from(["qa_accuracy", "qa_f1", "perplexity"]),
)
def test_relative_quality_bounded(distortion, keep, coverage, task):
    """Relative quality is always in [0, 1] for any inputs."""
    model = QualityModel(num_layers=8)
    value = model.relative_quality(task, np.full(8, distortion), keep, coverage)
    assert 0.0 <= value <= 1.0
