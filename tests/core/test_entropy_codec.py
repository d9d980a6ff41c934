"""Tests for the entropy-codec backends (exact AC vs size estimate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CacheGenConfig, CacheGenEncoder
from repro.core.entropy_codec import EntropyCodec, lane_count
from repro.core.probability_model import SymbolProbabilityModel


#: Bits one more lane can add to a payload, from the bitstream format: a table
#: entry (two varint bytes hold lane lengths below 16 KiB), up to seven bits of
#: byte padding, and the two termination bits.
LANE_OVERHEAD_BITS = 16 + 7 + 2


@pytest.fixture(scope="module")
def small_symbols():
    rng = np.random.default_rng(7)
    return rng.integers(-4, 5, size=(2, 60, 3))


@pytest.fixture(scope="module")
def model(small_symbols):
    return SymbolProbabilityModel.fit(small_symbols)


class TestEstimatedBackend:
    def test_roundtrip_lossless(self, small_symbols, model):
        codec = EntropyCodec(model, exact=False)
        payload = codec.encode(small_symbols)
        np.testing.assert_array_equal(codec.decode(payload), small_symbols)

    def test_bits_match_cross_entropy(self, small_symbols, model):
        codec = EntropyCodec(model, exact=False)
        payload = codec.encode(small_symbols)
        assert payload.bits == pytest.approx(model.cross_entropy_bits(small_symbols))

    @pytest.mark.parametrize(
        "lo, hi, dtype",
        [
            (-4, 4, np.int8),
            (-128, 127, np.int8),
            (-129, 0, np.int16),
            (0, 128, np.int16),
            (-255, 255, np.int16),
        ],
    )
    def test_symbols_stored_at_their_narrowest_width(self, model, lo, hi, dtype):
        """int8 when the range fits it, int16 (the whole alphabet) when it does not."""
        symbols = np.random.default_rng(hi - lo).integers(lo, hi + 1, size=(2, 60, 3))
        symbols[0, :2, 0] = lo, hi
        codec = EntropyCodec(model, exact=False)
        payload = codec.encode(symbols)
        assert payload.symbols.dtype == dtype
        np.testing.assert_array_equal(payload.symbols, symbols)
        # Symbols already at their width are carried as they are, not copied.
        assert codec.encode(payload.symbols).symbols is payload.symbols

    def test_default_levels_store_one_byte_a_symbol(self, fitted_codec, llm):
        """At the paper's levels every anchor and delta symbol of a mistral-7b
        chunk fits int8, so the four levels a store keeps per chunk hold one
        byte a symbol."""
        encoder = CacheGenEncoder(CacheGenConfig(), codec=fitted_codec())
        encodings = encoder.encode_all_levels(llm.calculate_kv("one-byte-a-symbol", 256))
        assert list(encodings) == ["high", "medium", "low", "lowest"]
        for encoded in encodings.values():
            for stream in (encoded.k_stream, encoded.v_stream):
                for payload in (stream.delta_payload, stream.anchor_payload):
                    assert not payload.exact
                    assert payload.symbols.nbytes == payload.symbols.size > 0

    def test_rejects_non_3d(self, model):
        with pytest.raises(ValueError):
            EntropyCodec(model).encode(np.zeros((3, 4), dtype=int))


class TestExactBackend:
    def test_roundtrip_lossless(self, small_symbols, model):
        codec = EntropyCodec(model, exact=True)
        payload = codec.encode(small_symbols)
        assert payload.exact and payload.data is not None
        np.testing.assert_array_equal(codec.decode(payload), small_symbols)

    def test_exact_size_close_to_estimate(self, small_symbols, model):
        """The real AC bitstream is the estimate plus a few bytes, plus what its lanes cost."""
        estimated = EntropyCodec(model, exact=False).encode(small_symbols)
        exact = EntropyCodec(model, exact=True).encode(small_symbols)
        lanes = lane_count(small_symbols.size)
        assert lanes == 2
        assert exact.bits <= estimated.bits * 1.02 + 64 + lanes * LANE_OVERHEAD_BITS
        assert exact.bits == 8 * len(exact.data)  # the lane table is part of the size

    def test_missing_bitstream_rejected(self, small_symbols, model):
        codec = EntropyCodec(model, exact=True)
        payload = codec.encode(small_symbols)
        payload.data = None
        with pytest.raises(ValueError):
            codec.decode(payload)

    def test_missing_symbols_rejected(self, small_symbols, model):
        codec = EntropyCodec(model, exact=False)
        payload = codec.encode(small_symbols)
        payload.symbols = None
        with pytest.raises(ValueError):
            codec.decode(payload)


def test_num_bytes_property(small_symbols, model):
    payload = EntropyCodec(model).encode(small_symbols)
    assert payload.num_bytes == pytest.approx(payload.bits / 8.0)
