"""Tests for the entropy-codec backends (exact AC vs size estimate)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import encode_all_levels
from repro.core import CacheGenConfig, CacheGenEncoder
from repro.core.entropy_codec import decode_payloads, encode_payloads, lane_count
from repro.core.probability_model import SymbolProbabilityModel


#: Bits one more lane can add to a payload, from the bitstream format: a table
#: entry (two varint bytes hold lane lengths below 16 KiB), up to seven bits of
#: byte padding, and the two termination bits.
LANE_OVERHEAD_BITS = 16 + 7 + 2


def encode(model, symbols, exact=False):
    """One payload coded alone."""
    return encode_payloads([(model, np.asarray(symbols))], exact)[0]


def decode(model, payload):
    return decode_payloads([(model, payload)])[0]


@pytest.fixture(scope="module")
def small_symbols():
    rng = np.random.default_rng(7)
    return rng.integers(-4, 5, size=(2, 60, 3))


@pytest.fixture(scope="module")
def model(small_symbols):
    return SymbolProbabilityModel.fit(small_symbols)


class TestEstimatedBackend:
    def test_payload_is_a_size_and_refuses_to_decode(self, small_symbols, model):
        """An estimated payload keeps no symbols: only its EncodedKV, which holds
        the encoded chunk, can be decoded."""
        payload = encode(model, small_symbols)
        assert payload.data is None
        assert not any(isinstance(value, np.ndarray) for value in vars(payload).values())
        with pytest.raises(ValueError, match="decode the EncodedKV"):
            decode(model, payload)

    def test_bits_match_cross_entropy(self, small_symbols, model):
        payload = encode(model, small_symbols)
        assert payload.bits == pytest.approx(model.cross_entropy_bits(small_symbols))

    def test_default_levels_store_sizes_and_their_source(self, fitted_codec, llm):
        """The four levels a store keeps per chunk hold sizes, not symbols; each
        points at the one chunk it encoded, from which it decodes."""
        encoder = CacheGenEncoder(CacheGenConfig(), codec=fitted_codec())
        kv = llm.calculate_kv("sizes-and-source", 256)
        encodings = encode_all_levels(encoder, kv)
        assert list(encodings) == ["high", "medium", "low", "lowest"]
        for encoded in encodings.values():
            assert encoded.source is kv
            for stream in (encoded.k_stream, encoded.v_stream):
                for payload in (stream.delta_payload, stream.anchor_payload):
                    assert not payload.exact and payload.data is None and payload.bits > 0

    def test_rejects_non_3d(self, model):
        with pytest.raises(ValueError):
            encode(model, np.zeros((3, 4), dtype=int))


class TestExactBackend:
    def test_roundtrip_lossless(self, small_symbols, model):
        payload = encode(model, small_symbols, exact=True)
        assert payload.exact and payload.data is not None
        np.testing.assert_array_equal(decode(model, payload), small_symbols)

    def test_exact_size_close_to_estimate(self, small_symbols, model):
        """The real AC bitstream is the estimate plus a few bytes, plus what its lanes cost."""
        estimated = encode(model, small_symbols)
        exact = encode(model, small_symbols, exact=True)
        lanes = lane_count(small_symbols.size)
        assert lanes == 2
        assert exact.bits <= estimated.bits * 1.02 + 64 + lanes * LANE_OVERHEAD_BITS
        assert exact.bits == 8 * len(exact.data)  # the lane table is part of the size

    def test_missing_bitstream_rejected(self, small_symbols, model):
        payload = encode(model, small_symbols, exact=True)
        payload.data = None
        with pytest.raises(ValueError):
            decode(model, payload)


@pytest.mark.parametrize(
    "symbols",
    [
        np.full((2, 5, 3), 0.7),
        np.ones((2, 5, 3), dtype=bool),
        np.full((2, 5, 3), 256),
        np.full((2, 5, 3), -256, dtype=np.int16),
        np.zeros((5, 3), dtype=int),
    ],
    ids=["float", "bool", "above the clip", "below the clip", "2-D"],
)
def test_both_backends_refuse_the_same_tensors(model, symbols):
    """No tensor the estimate refuses is coded exactly: a float is not rounded
    to an integer, a bool is not a 0/1 symbol, and an out-of-range value is not
    wrapped into the alphabet."""
    errors = []
    for exact in (False, True):
        with pytest.raises(ValueError) as raised:
            encode(model, symbols, exact)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
