"""Tests for the entropy-codec backends (exact AC vs size estimate)."""

from __future__ import annotations

import numpy as np
import pytest

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

    def test_symbols_stored_as_int16(self, small_symbols, model):
        payload = EntropyCodec(model, exact=False).encode(small_symbols)
        assert payload.symbols is not None
        assert payload.symbols.dtype == np.int16

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
