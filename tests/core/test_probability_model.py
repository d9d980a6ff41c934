"""Tests for the symbol probability models used by the entropy coder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.arithmetic_coder import MAX_TOTAL_FREQUENCY, ArithmeticEncoder
from repro.core.probability_model import (
    ALPHABET_SIZE,
    MAX_QUANTIZE_TOTAL,
    SymbolProbabilityModel,
)
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


class TestFromCounts:
    VALID = {
        "counts": np.zeros((12, 3), dtype=np.int64),
        "lo": -1,
        "shape": (3, 50, 4),
        "grouping": "channel_layer",
        "smoothing": 0.1,
    }

    def test_rebuilds_the_fit_bit_for_bit(self, rng):
        tensors = [symbol_tensor(rng), symbol_tensor(rng, spread=5)]
        fitted = SymbolProbabilityModel.fit(tensors, smoothing=0.3)
        counts = np.rint(fitted.band - fitted.smoothing).astype(np.uint16)
        rebuilt = SymbolProbabilityModel.from_counts(
            counts, fitted.lo, fitted.shape, "channel_layer", 0.3
        )
        assert (rebuilt.lo, rebuilt.shape, rebuilt.smoothing) == (fitted.lo, fitted.shape, 0.3)
        for got, want in [
            (rebuilt.band, fitted.band),
            (rebuilt.totals, fitted.totals),
            (rebuilt.cumulative_counts(), fitted.cumulative_counts()),
        ]:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rebuilt.cross_entropy_bits(tensors[0]) == fitted.cross_entropy_bits(tensors[0])

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"counts": np.zeros((12, 3))}, "2-D integer array, not 2-D float64"),
            ({"counts": np.zeros((12, 3), dtype=bool)}, "2-D integer array, not 2-D bool"),
            ({"counts": np.zeros(12, dtype=np.int64)}, "2-D integer array, not 1-D int64"),
            ({"counts": np.full((12, 3), -1)}, "non-negative"),
            ({"lo": 254}, r"band 254\.\.256 lies outside"),
            ({"lo": -256}, r"band -256\.\.-254 lies outside"),
            ({"lo": 1.0}, "lo must be an integer"),
            ({"lo": True}, "lo must be an integer"),
            ({"shape": (3, 50)}, "shape must be 3"),
            ({"grouping": "banana"}, "unknown grouping"),
            (
                {"counts": np.zeros((11, 3), dtype=np.int64)},
                "11 rows, but grouping 'channel_layer' induces 12",
            ),
            ({"smoothing": float("nan")}, "smoothing must be finite and positive"),
        ],
    )
    def test_refuses_what_no_fit_produces(self, changes, message):
        with pytest.raises(ValueError, match=message):
            SymbolProbabilityModel.from_counts(**{**self.VALID, **changes})


class TestEquality:
    """``==`` used to raise: the generated ``__eq__`` compared numpy fields."""

    def test_two_fits_of_the_same_symbols_are_equal(self, rng):
        data = symbol_tensor(rng)
        first, second = SymbolProbabilityModel.fit(data), SymbolProbabilityModel.fit(data)
        assert first is not second
        assert first == second and not first != second

    def test_counts_that_differ_in_one_cell_are_unequal(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        counts = model.band_counts.copy()
        counts[5, 2] += 1
        other = SymbolProbabilityModel.from_counts(counts, model.lo, model.shape)
        assert model != other and not model == other

    @pytest.mark.parametrize(
        "changes",
        [{"lo": -4}, {"shape": (1, 51, 4)}, {"smoothing": 0.2}, {"grouping": "channel"}],
        ids=["lo", "shape", "smoothing", "grouping"],
    )
    def test_every_saved_field_takes_part(self, changes):
        # One layer, so "channel" induces the same 4 contexts as "channel_layer".
        fields = {"counts": np.arange(12).reshape(4, 3), "lo": -1, "shape": (1, 50, 4)}
        model = SymbolProbabilityModel.from_counts(**fields)
        other = SymbolProbabilityModel.from_counts(**{**fields, **changes})
        assert model != other

    def test_the_count_dtype_and_derived_tables_take_no_part(self, rng):
        data = symbol_tensor(rng)
        model = SymbolProbabilityModel.fit(data)
        wide = SymbolProbabilityModel.from_counts(
            model.band_counts.astype(np.int64), model.lo, model.shape
        )
        model.cross_entropy_bits(data)  # fills the log-probability tables
        assert model == wide


class TestIntegerCounts:
    def test_counts_are_kept_in_the_narrowest_unsigned_dtype(self):
        for peak, dtype in [(0, np.uint8), (255, np.uint8), (256, np.uint16), (1 << 16, np.uint32)]:
            counts = np.zeros((12, 3), dtype=np.int64)
            counts[0, 0] = peak
            model = SymbolProbabilityModel.from_counts(counts, -1, (3, 50, 4))
            assert model.band_counts.dtype == dtype
            assert model.band_counts[0, 0] == peak

    def test_the_callers_counts_stay_writable_and_unshared(self):
        counts = np.ones((12, 3), dtype=np.uint8)
        model = SymbolProbabilityModel.from_counts(counts, -1, (3, 50, 4))
        counts[0, 0] = 7
        assert model.band_counts[0, 0] == 1 and not model.band_counts.flags.writeable

    def test_band_is_counts_plus_smoothing_rebuilt_per_call(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng), smoothing=0.3)
        band = model.band
        assert band.dtype == np.float64 and not band.flags.writeable
        assert np.array_equal(band, model.band_counts.astype(np.float64) + 0.3)
        assert model.band is not band


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
        bpe = model.cross_entropy_bits(data) / data.size
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

    def test_a_total_rounding_could_push_past_the_coder_is_rejected(self):
        """``2**30`` used to be admitted, and this model's table came out at
        ``2**30 + 17``, which the coder refused."""
        symbols = np.random.default_rng(2).integers(-255, 256, size=(1, 300, 1))
        model = SymbolProbabilityModel.fit([symbols], grouping="global")
        with pytest.raises(ValueError, match="quantize_total must be"):
            model.cumulative_counts(1 << 30)
        cum = model.cumulative_counts(MAX_QUANTIZE_TOTAL)
        assert cum[0, -1] <= MAX_TOTAL_FREQUENCY
        ArithmeticEncoder(cum)

    def test_max_total_is_the_coder_budget_less_the_rounding(self):
        assert MAX_QUANTIZE_TOTAL == MAX_TOTAL_FREQUENCY - ALPHABET_SIZE // 2

    def test_context_ids_shape_check(self, rng):
        model = SymbolProbabilityModel.fit(symbol_tensor(rng))
        ids = model.context_ids_for((3, 7, 4))
        assert ids.shape == (3, 7, 4)
        with pytest.raises(ValueError):
            model.context_ids_for((3, 7, 5))


@given(
    seed=st.integers(0, 2**32 - 1),
    grouping=st.sampled_from(["channel", "global"]),
    spread=st.sampled_from([0, 3, 40, SYMBOL_CLIP]),
    quantize_total=st.one_of(
        st.sampled_from([2 * ALPHABET_SIZE, MAX_QUANTIZE_TOTAL]),
        st.integers(2 * ALPHABET_SIZE, MAX_QUANTIZE_TOTAL),
    ),
)
def test_every_admissible_total_gives_a_table_the_coder_takes(
    seed, grouping, spread, quantize_total
):
    rng = np.random.default_rng(seed)
    tokens = int(rng.integers(1, 400))
    model = SymbolProbabilityModel.fit(symbol_tensor(rng, 1, tokens, 5, spread), grouping=grouping)
    ArithmeticEncoder(model.cumulative_counts(quantize_total))
