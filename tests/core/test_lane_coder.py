"""Byte-equality oracle for the lane-parallel arithmetic coder.

``repro.core.arithmetic_coder`` codes ``lanes`` streams in lock-step numpy.
Its contract is not "round-trips" but "each lane is the scalar coder's
stream": lane ``l`` of ``ArithmeticEncoder(cum, lanes).encode(symbols,
contexts)`` must equal, byte for byte, what the one-symbol-at-a-time coder kept
in :mod:`scalar_coder` writes for ``symbols[l::lanes]``.  The decoder is held
to the scalar decoder the same way, on honest streams and on garbage.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
25 in tier-1, 250 in CI's ``codec-fuzz`` step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scalar_coder import ScalarDecoder, ScalarEncoder

from repro.core import CacheGenEncoder
from repro.core.arithmetic_coder import (
    MAX_TOTAL_FREQUENCY,
    ArithmeticDecoder,
    ArithmeticEncoder,
    _renormalise,
    _split_lanes,
    _varints,
)
from repro.core.probability_model import SYMBOL_OFFSET

TABLE_KINDS = ("uniform", "small", "skewed", "huge")


def random_table(rng: np.random.Generator, kind: str, rows: int, alphabet: int) -> np.ndarray:
    """A ``(rows, alphabet + 1)`` cumulative table of the given flavour."""
    if kind == "uniform":
        freqs = np.ones((rows, alphabet), dtype=np.int64)
    elif kind == "small":
        freqs = rng.integers(1, 50, size=(rows, alphabet))
    elif kind == "skewed":
        # One symbol owns the whole budget: totals are exactly the maximum and
        # every other symbol has frequency 1 (the narrowest admissible range).
        freqs = np.ones((rows, alphabet), dtype=np.int64)
        freqs[:, 0] = MAX_TOTAL_FREQUENCY - alphabet + 1
    else:
        freqs = rng.integers(1, MAX_TOTAL_FREQUENCY // alphabet, size=(rows, alphabet))
    return np.concatenate([np.zeros((rows, 1), np.int64), np.cumsum(freqs, axis=1)], axis=1)


def random_symbols(rng: np.random.Generator, kind: str, alphabet: int, n: int) -> np.ndarray:
    symbols = rng.integers(0, alphabet, size=n)
    if kind == "skewed":  # mostly the likely symbol, so pending bits pile up
        symbols[rng.random(n) < 0.9] = 0
    return symbols


def lane_streams(data: bytes, lanes: int) -> list[bytes]:
    body, lengths = _split_lanes(np.frombuffer(data, dtype=np.uint8), lanes)
    starts = np.cumsum(lengths) - lengths
    return [body[start : start + length].tobytes() for start, length in zip(starts, lengths)]


def assert_lanes_are_scalar_streams(cum, symbols, contexts, lanes):
    data = ArithmeticEncoder(cum, lanes).encode(symbols, contexts)
    streams = lane_streams(data, lanes)
    assert len(streams) == lanes
    for lane, stream in enumerate(streams):
        assert stream == ScalarEncoder(cum).encode(symbols[lane::lanes], contexts[lane::lanes]), (
            f"lane {lane} of {lanes}"
        )
    if lanes == 1:
        assert data == ScalarEncoder(cum).encode(symbols, contexts)
    np.testing.assert_array_equal(
        ArithmeticDecoder(cum, lanes).decode(data, len(symbols), contexts), symbols
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(TABLE_KINDS),
    rows=st.integers(1, 4),
    alphabet=st.integers(2, 40),
    n=st.integers(0, 300),
)
def test_every_lane_is_the_scalar_stream(seed, kind, rows, alphabet, n):
    rng = np.random.default_rng(seed)
    cum = random_table(rng, kind, rows, alphabet)
    symbols = random_symbols(rng, kind, alphabet, n)
    contexts = rng.integers(0, rows, size=n)
    # 7 rarely divides n (ragged last step); n lanes is one symbol per lane,
    # and n + 3 leaves lanes that code nothing.
    for lanes in sorted({1, 2, 7, max(n, 1), n + 3}):
        assert_lanes_are_scalar_streams(cum, symbols, contexts, lanes)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(TABLE_KINDS),
    n=st.integers(0, 200),
    lanes=st.integers(1, 9),
)
def test_decoder_matches_the_scalar_decoder_on_garbage(seed, kind, n, lanes):
    """Any bytes decode to what the scalar decoder makes of each lane's bytes,
    reads past a lane's end included (they are zeros, not the next lane)."""
    rng = np.random.default_rng(seed)
    rows, alphabet = 3, 17
    cum = random_table(rng, kind, rows, alphabet)
    contexts = rng.integers(0, rows, size=n)
    streams = [
        rng.integers(0, 256, size=int(length), dtype=np.uint8).tobytes()
        for length in rng.integers(0, 12, size=lanes)
    ]
    table = _varints(np.array([len(stream) for stream in streams[:-1]], dtype=np.int64))
    decoded = ArithmeticDecoder(cum, lanes).decode(table + b"".join(streams), n, contexts)
    assert n == 0 or (0 <= decoded.min() and decoded.max() < alphabet)
    for lane, stream in enumerate(streams):
        lane_contexts = contexts[lane::lanes]
        np.testing.assert_array_equal(
            decoded[lane::lanes], ScalarDecoder(cum).decode(stream, len(lane_contexts), lane_contexts)
        )


@pytest.fixture(scope="module")
def level_payloads(encoder: CacheGenEncoder, kv):
    """Per level, ``(table, alphabet symbols, contexts)`` of a real chunk's delta and anchor tensors."""
    chunk = kv.slice_tokens(0, 23)
    payloads = {}
    for level in encoder.config.levels:
        models = encoder.model_for_level(level)
        (delta, anchor), _ = encoder.quantize(chunk, level)
        for name, quantized, model in (
            ("delta", delta, models.delta_model),
            ("anchor", anchor, models.anchor_model),
        ):
            payloads[level.name, name] = (
                model.cumulative_counts(),
                quantized.symbols.ravel().astype(np.int64) + SYMBOL_OFFSET,
                model.context_ids_for(quantized.symbols.shape).ravel(),
            )
    return payloads


@pytest.mark.parametrize("tensor", ["delta", "anchor"])
@pytest.mark.parametrize("level", ["high", "medium", "low", "lowest"])
def test_fitted_models_of_every_level(level_payloads, level, tensor):
    cum, symbols, contexts = level_payloads[level, tensor]
    assert len(symbols) % 7  # the 7-lane case below has a ragged last step
    for lanes in (1, 7, 160):
        assert_lanes_are_scalar_streams(cum, symbols, contexts, lanes)


class TestRenormalise:
    """The closed form against the scalar loop, on the intervals that stress it."""

    @staticmethod
    def scalar(low: int, high: int) -> tuple[int, int, int, int]:
        half, quarter = 1 << 31, 1 << 30
        emitted = deferred = 0
        while True:
            if high < half:
                emitted += 1
            elif low >= half:
                emitted += 1
                low -= half
                high -= half
            elif low >= quarter and high < 3 * quarter:
                deferred += 1
                low -= quarter
                high -= quarter
            else:
                return emitted, deferred, low, high
            low <<= 1
            high = (high << 1) | 1

    def assert_matches_the_scalar_loop(self, low: int, high: int) -> None:
        """The library carries ``(low, span)``; the scalar coder ``(low, high)``."""
        differing, shifts, new_low, new_span = _renormalise(
            np.array([low]), np.array([high - low + 1])
        )
        emitted, deferred, want_low, want_high = self.scalar(low, high)
        assert (32 - int(differing[0]), int(shifts[0])) == (emitted, emitted + deferred)
        assert (int(new_low[0]), int(new_low[0] + new_span[0] - 1)) == (want_low, want_high)

    @pytest.mark.parametrize(
        "low, high",
        [
            (0, 0xFFFFFFFF),  # nothing to do
            (0x12345678, 0x12345678),  # low == high: all 32 bits go out
            (0xFFFFFFFF, 0xFFFFFFFF),
            (0, 0),
            (0x7FFFFFFF, 0x80000000),  # 31 E3 shifts
            (0x7FFFFFFE, 0x80000001),
            (0x3FFFFFFF, 0x40000000),  # one E1, then 30 E3
            (0xABCD7FFF, 0xABCD8000),  # 16 shared bits, then 15 E3
            (0x40000000, 0xBFFFFFFF),  # exactly [quarter, three quarters)
            (0x3FFFFFFF, 0xBFFFFFFF),  # just outside it
        ],
    )
    def test_edge_intervals(self, low, high):
        self.assert_matches_the_scalar_loop(low, high)

    @given(low=st.integers(0, 2**32 - 1), span=st.integers(0, 2**32 - 1))
    def test_any_interval(self, low, span):
        self.assert_matches_the_scalar_loop(low, min(low + span, 2**32 - 1))


class TestLaneTable:
    @pytest.mark.parametrize("lengths", [[0], [127], [128, 5], [16383, 16384, 0, 5]])
    def test_varints_round_trip(self, lengths):
        table = np.frombuffer(_varints(np.array(lengths, dtype=np.int64)), dtype=np.uint8)
        raw = np.concatenate([table, np.zeros(sum(lengths) + 2, dtype=np.uint8)])
        body, parsed = _split_lanes(raw, len(lengths) + 1)
        assert parsed.tolist() == lengths + [2] and len(body) == sum(lengths) + 2

    def test_varint_sizes(self):
        """One byte below 128, two below 128**2: what the per-lane overhead bound assumes."""
        assert [len(_varints(np.array([v]))) for v in (0, 127, 128, 16383, 16384)] == [1, 1, 2, 2, 3]

    def test_table_lists_all_lanes_but_the_last(self):
        cum = np.array([0, 5, 9, 10])
        symbols = np.array([0, 1, 2, 0, 0, 1, 0, 0, 2, 1, 0])
        data = ArithmeticEncoder(cum, lanes=3).encode(symbols)
        streams = lane_streams(data, 3)
        assert data == bytes([len(streams[0]), len(streams[1])]) + b"".join(streams)
