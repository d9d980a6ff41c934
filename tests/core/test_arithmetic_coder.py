"""Tests for the integer arithmetic coder.

Byte equality with the scalar reference coder is ``test_lane_coder.py``'s job;
these are the behavioural tests: round trips, compression efficiency and the
errors raised for invalid tables, symbols, contexts and bitstreams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arithmetic_coder import (
    ArithmeticDecoder,
    ArithmeticEncoder,
    decode_symbols,
    encode_symbols,
)


def uniform_cum(alphabet: int) -> np.ndarray:
    return np.arange(alphabet + 1, dtype=np.int64)


class TestRoundTrip:
    def test_simple_roundtrip(self):
        cum = np.array([0, 5, 9, 10])
        symbols = [0, 1, 2, 0, 0, 1]
        data = encode_symbols(symbols, cum)
        np.testing.assert_array_equal(decode_symbols(data, len(symbols), cum), symbols)

    def test_empty_sequence(self):
        cum = uniform_cum(4)
        data = encode_symbols([], cum)
        assert decode_symbols(data, 0, cum).size == 0

    def test_single_symbol(self):
        cum = np.array([0, 1, 100])
        data = encode_symbols([1], cum)
        np.testing.assert_array_equal(decode_symbols(data, 1, cum), [1])

    def test_long_skewed_sequence(self, rng):
        cum = np.array([0, 900, 950, 990, 1000])
        symbols = rng.choice(4, size=5000, p=[0.9, 0.05, 0.04, 0.01])
        data = encode_symbols(symbols, cum)
        np.testing.assert_array_equal(decode_symbols(data, len(symbols), cum), symbols)

    def test_per_context_tables(self, rng):
        cum = np.stack([np.array([0, 90, 95, 100]), np.array([0, 5, 10, 100])])
        contexts = rng.integers(0, 2, size=2000)
        symbols = np.where(contexts == 0, rng.choice(3, 2000, p=[0.9, 0.05, 0.05]),
                           rng.choice(3, 2000, p=[0.05, 0.05, 0.9]))
        data = encode_symbols(symbols, cum, contexts)
        np.testing.assert_array_equal(decode_symbols(data, len(symbols), cum, contexts), symbols)


class TestCompressionEfficiency:
    def test_skewed_data_compresses_below_fixed_width(self, rng):
        """Highly skewed symbols should take far fewer than 2 bits each."""
        cum = np.array([0, 960, 980, 990, 1000])
        symbols = rng.choice(4, size=8000, p=[0.96, 0.02, 0.01, 0.01])
        data = encode_symbols(symbols, cum)
        bits_per_symbol = len(data) * 8 / len(symbols)
        assert bits_per_symbol < 0.5

    def test_close_to_entropy(self, rng):
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        entropy = -np.sum(probs * np.log2(probs))
        cum = np.concatenate([[0], np.cumsum((probs * 1000).astype(np.int64))])
        symbols = rng.choice(4, size=10_000, p=probs)
        data = encode_symbols(symbols, cum)
        bits_per_symbol = len(data) * 8 / len(symbols)
        assert bits_per_symbol < entropy * 1.05 + 0.01

    def test_uniform_data_near_log2(self, rng):
        cum = uniform_cum(16)
        symbols = rng.integers(0, 16, size=4000)
        data = encode_symbols(symbols, cum)
        assert len(data) * 8 / len(symbols) == pytest.approx(4.0, abs=0.1)


class TestValidation:
    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            encode_symbols([5], uniform_cum(4))

    def test_context_out_of_range(self):
        cum = np.stack([uniform_cum(4), uniform_cum(4)])
        with pytest.raises(ValueError):
            encode_symbols([0], cum, [3])

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            ArithmeticEncoder(np.array([0, 0, 5]))

    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            ArithmeticEncoder(np.array([1, 2, 5]))

    def test_mismatched_context_length(self):
        with pytest.raises(ValueError):
            encode_symbols([0, 1], uniform_cum(4), [0])

    def test_decoder_context_length_mismatch(self):
        cum = uniform_cum(4)
        data = encode_symbols([0, 1], cum)
        with pytest.raises(ValueError):
            ArithmeticDecoder(cum).decode(data, 2, [0])

    @pytest.mark.parametrize("lanes", [0, -1, 1.5, 2.0, True, "2", None])
    def test_lane_count_must_be_a_positive_integer(self, lanes):
        with pytest.raises(ValueError, match="lanes"):
            ArithmeticEncoder(uniform_cum(4), lanes=lanes)
        with pytest.raises(ValueError, match="lanes"):
            ArithmeticDecoder(uniform_cum(4), lanes=lanes)


class TestDecoderRejectsHostileInput:
    """The decoder validates before it decodes, as the encoder always did."""

    cum = np.stack([uniform_cum(4), np.array([0, 1, 2, 3, 10])])
    symbols = [0, 1, 2, 3, 3, 0, 1]
    contexts = [0, 1, 0, 1, 0, 1, 0]

    def test_negative_context_is_not_the_last_row(self):
        data = encode_symbols([3, 3, 3], self.cum, [1, 1, 1])
        with pytest.raises(ValueError, match="context out of range"):
            decode_symbols(data, 3, self.cum, [-1, -1, -1])

    def test_context_past_the_table(self):
        with pytest.raises(ValueError, match="context out of range"):
            decode_symbols(b"\x00", 1, self.cum, [2])

    def test_negative_symbol_count(self):
        with pytest.raises(ValueError, match="num_symbols"):
            decode_symbols(b"\x00", -1, self.cum)

    def test_truncated_lane_table(self):
        data = encode_symbols(self.symbols, self.cum, self.contexts, lanes=4)
        with pytest.raises(ValueError, match="truncated lane table.*2 of the 3"):
            decode_symbols(data[:2], 7, self.cum, self.contexts, lanes=4)
        with pytest.raises(ValueError, match="truncated lane table"):
            decode_symbols(b"\x81\x82\x83", 7, self.cum, self.contexts, lanes=2)

    def test_lane_lengths_past_the_data(self):
        data = bytearray(encode_symbols(self.symbols, self.cum, self.contexts, lanes=4))
        data[1] = 100  # lane 1 claims 100 bytes of a handful
        with pytest.raises(ValueError, match="lane 1 ends past"):
            decode_symbols(bytes(data), 7, self.cum, self.contexts, lanes=4)

    def test_overlong_lane_table_entry(self):
        with pytest.raises(ValueError, match="lane 0 is longer"):
            decode_symbols(b"\xff" * 9 + b"\x00", 2, self.cum, [0, 1], lanes=2)

    def test_short_and_empty_data_read_as_zeros(self):
        assert decode_symbols(b"", 5, uniform_cum(4)).tolist() == [0] * 5
        assert decode_symbols(b"\x00", 4, uniform_cum(4), lanes=2).tolist() == [0] * 4


class TestCoderRejectsWhatItCannotCode:
    """Nothing is rounded, truncated or defaulted into something codable: each
    of these used to be coded as something else, silently."""

    cum = np.stack([uniform_cum(4), np.array([0, 1, 2, 3, 10])])

    @pytest.mark.parametrize("symbols", [[0.9, 1.2], [1.0, 2.0], np.array([True, False]), ["1"]])
    def test_symbols_must_be_integers(self, symbols):
        with pytest.raises(ValueError, match="symbols must be integers"):
            ArithmeticEncoder(uniform_cum(4)).encode(symbols)

    def test_contexts_must_be_integers(self):
        with pytest.raises(ValueError, match="contexts must be integers"):
            encode_symbols([0, 1], self.cum, [0.2, 1.7])
        with pytest.raises(ValueError, match="contexts must be integers"):
            decode_symbols(b"\x00", 2, self.cum, [0.2, 1.7])

    @pytest.mark.parametrize("count", [2.7, 2.0, True, "2", None])
    def test_symbol_count_must_be_an_integer(self, count):
        data = encode_symbols([0, 1], uniform_cum(4))
        with pytest.raises(ValueError, match="num_symbols"):
            ArithmeticDecoder(uniform_cum(4)).decode(data, count)

    def test_numpy_integers_are_integers(self):
        data = ArithmeticEncoder(uniform_cum(4), lanes=np.int64(2)).encode(np.array([3, 1, 2], np.uint8))
        decoded = ArithmeticDecoder(uniform_cum(4), lanes=np.int32(2)).decode(data, np.int64(3))
        assert decoded.tolist() == [3, 1, 2]

    def test_contexts_may_be_omitted_only_with_single_row_tables(self):
        """``None`` used to mean row 0 of whatever table there was."""
        with pytest.raises(ValueError, match="contexts are required"):
            encode_symbols([0, 1], self.cum)
        with pytest.raises(ValueError, match="contexts are required"):
            decode_symbols(b"\x00", 2, self.cum)
        assert decode_symbols(encode_symbols([0, 1], self.cum[:1]), 2, self.cum[:1]).tolist() == [0, 1]

    def test_batch_geometry_must_agree(self):
        cum = uniform_cum(4)
        with pytest.raises(ValueError, match="one table, one lane count and one size"):
            ArithmeticEncoder([cum, cum], [1], [3, 4])
        with pytest.raises(ValueError, match="one table, one lane count and one size"):
            ArithmeticDecoder([], [], [])
        with pytest.raises(ValueError, match="sizes"):
            ArithmeticEncoder([cum], [1], [-1])
        with pytest.raises(ValueError, match="holds 7 symbols, not 6"):
            ArithmeticEncoder([cum, cum], [1, 2], [3, 4]).encode([0] * 6)
        decoder = ArithmeticDecoder([cum, cum], [1, 2], [3, 4])
        with pytest.raises(ValueError, match="holds 7 symbols, not 8"):
            decoder.decode([b"", b""], 8)
        with pytest.raises(ValueError, match="holds 2 payloads, not 1"):
            decoder.decode([b""], 7)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alphabet=st.integers(2, 12),
    length=st.integers(1, 400),
    lanes=st.integers(1, 40),
)
def test_roundtrip_property(seed, alphabet, length, lanes):
    """Encoding then decoding recovers any symbol sequence exactly, in any number of lanes."""
    rng = np.random.default_rng(seed)
    freqs = rng.integers(1, 50, size=alphabet)
    cum = np.concatenate([[0], np.cumsum(freqs)])
    symbols = rng.integers(0, alphabet, size=length)
    data = encode_symbols(symbols, cum, lanes=lanes)
    np.testing.assert_array_equal(decode_symbols(data, length, cum, lanes=lanes), symbols)
