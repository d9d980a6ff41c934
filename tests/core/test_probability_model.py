"""Tests for the symbol probability models used by the entropy coder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.probability_model import ALPHABET_SIZE, SymbolProbabilityModel
from repro.core.quantization import SYMBOL_CLIP


def symbol_tensor(rng, layers=3, tokens=50, channels=4, spread=3):
    return rng.integers(-spread, spread + 1, size=(layers, tokens, channels))


class TestFit:
    @pytest.mark.parametrize(
        "grouping,expected_contexts",
        [("channel_layer", 12), ("layer", 3), ("channel", 4), ("token", 50), ("global", 1)],
    )
    def test_context_counts(self, rng, grouping, expected_contexts):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng), grouping=grouping)
        assert model.num_contexts == expected_contexts

    def test_probabilities_sum_to_one(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        np.testing.assert_allclose(model.probabilities().sum(axis=1), 1.0)

    def test_fit_multiple_tensors(self, rng):
        tensors = [symbol_tensor(rng), symbol_tensor(rng)]
        model = SymbolProbabilityModel.fit(tensors)
        assert model.num_contexts == 12

    def test_out_of_range_symbols_rejected(self, rng):
        bad = np.full((1, 5, 2), SYMBOL_CLIP + 1)
        with pytest.raises(ValueError):
            SymbolProbabilityModel.fit(bad)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            SymbolProbabilityModel.fit([])

    def test_unknown_grouping_rejected(self, rng):
        with pytest.raises(ValueError):
            SymbolProbabilityModel.fit(symbol_tensor(rng), grouping="banana")

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), 0.0, -0.1])
    def test_smoothing_must_be_finite_and_positive(self, rng, smoothing):
        """NaN and inf used to fit, then score NaN bits and quantise NaN into the coder's table."""
        with pytest.raises(ValueError, match="smoothing must be finite and positive"):
            SymbolProbabilityModel.fit(symbol_tensor(rng), smoothing=smoothing)


class TestNonIntegerSymbolsRejected:
    """A float tensor used to die in ``np.bincount``; a bool one was fitted as 0/1."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.bool_])
    def test_fit(self, rng, dtype):
        with pytest.raises(ValueError, match=f"symbols must be integers, not {np.dtype(dtype)}"):
            SymbolProbabilityModel.fit(symbol_tensor(rng).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.bool_])
    def test_cross_entropy_bits(self, rng, dtype):
        data = symbol_tensor(rng)
        model = SymbolProbabilityModel.fit(data)
        expected = model.cross_entropy_bits(data)
        with pytest.raises(ValueError, match=f"symbols must be integers, not {np.dtype(dtype)}"):
            model.cross_entropy_bits(data.astype(dtype))
        assert model.cross_entropy_bits(data) == expected


class TestScoring:
    def test_cross_entropy_positive(self, rng):
        data = symbol_tensor(rng)
        model = SymbolProbabilityModel.fit(data)
        assert model.cross_entropy_bits(data) > 0

    def test_bits_per_element_close_to_entropy(self, rng):
        data = symbol_tensor(rng, tokens=400)
        model = SymbolProbabilityModel.fit(data)
        bpe = model.bits_per_element(data)
        assert 0 < bpe < np.log2(ALPHABET_SIZE)

    def test_matched_model_beats_mismatched(self, rng):
        """Data drawn from concentrated distributions codes better under its own model."""
        concentrated = rng.integers(-1, 2, size=(2, 300, 4))
        spread = rng.integers(-40, 41, size=(2, 300, 4))
        model_concentrated = SymbolProbabilityModel.fit(concentrated)
        model_spread = SymbolProbabilityModel.fit(spread)
        assert model_concentrated.cross_entropy_bits(concentrated) < model_spread.cross_entropy_bits(
            spread
        )

    def test_channel_grouping_beats_global_on_heterogeneous_channels(self, rng):
        """Insight 3: per-channel models code heterogeneous channels better."""
        narrow = rng.integers(-1, 2, size=(1, 500, 2))
        wide = rng.integers(-30, 31, size=(1, 500, 2))
        data = np.concatenate([narrow, wide], axis=2)
        per_channel = SymbolProbabilityModel.fit(data, grouping="channel")
        global_model = SymbolProbabilityModel.fit(data, grouping="global")
        assert per_channel.cross_entropy_bits(data) < global_model.cross_entropy_bits(data)

    def test_context_count_mismatch_rejected(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng, channels=4))
        with pytest.raises(ValueError):
            model.cross_entropy_bits(symbol_tensor(rng, channels=5))

    def test_entropy_bits_per_symbol_nonnegative(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        assert model.entropy_bits_per_symbol() >= 0


class TestCumulativeCounts:
    def test_shape_and_monotonicity(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        cum = model.cumulative_counts()
        assert cum.shape == (model.num_contexts, ALPHABET_SIZE + 1)
        assert np.all(cum[:, 0] == 0)
        assert np.all(np.diff(cum, axis=1) >= 1)

    def test_total_bounded(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        cum = model.cumulative_counts(quantize_total=1 << 16)
        assert cum[:, -1].max() <= (1 << 16) + ALPHABET_SIZE

    def test_too_small_total_rejected(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        with pytest.raises(ValueError):
            model.cumulative_counts(quantize_total=10)

    def test_context_ids_shape_check(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        ids = model.context_ids_for((3, 7, 4))
        assert ids.shape == (3, 7, 4)
        with pytest.raises(ValueError):
            model.context_ids_for((3, 7, 5))
