"""The batch coder against the single-payload coder, and a golden of the format.

``ArithmeticEncoder(tables, lanes, sizes)`` advances the lanes of several
payloads in one loop.  Its contract is that batching is invisible: every
payload's bytes are what ``ArithmeticEncoder(table, lanes)`` writes for that
payload alone — which ``test_lane_coder.py`` holds, lane by lane, to the scalar
coder — and the decoder returns what the single-payload decoder returns,
garbage included.

The golden at the bottom pins the bitstream itself: the sha256 of the four
payloads of one fixed chunk at every level.  A change to the lane geometry,
the table quantisation or the coder's arithmetic shows up there as a reviewed
diff, not as a moved benchmark digest.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
25 in tier-1, 250 in CI's ``codec-fuzz`` step.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_lane_coder import TABLE_KINDS, random_symbols, random_table

from repro.core import CacheGenDecoder, CacheGenEncoder, arithmetic_coder
from repro.core.arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder
from repro.core.entropy_codec import (
    EntropyCodec,
    _batches,
    decode_payloads,
    encode_payloads,
    lane_count,
)

#: One payload of a drawn batch: which of the two tables, symbols, lanes.
payloads = st.tuples(st.integers(0, 1), st.integers(0, 600), st.integers(1, 12))


def drawn_batch(seed, kinds, drawn):
    """``(tables, lanes, sizes, symbols, contexts)`` with one entry per drawn payload."""
    rng = np.random.default_rng(seed)
    pair = [random_table(rng, kind, int(rng.integers(1, 4)), int(rng.integers(2, 40))) for kind in kinds]
    tables, lanes, sizes, symbols, contexts = [], [], [], [], []
    for which, size, width in drawn:
        table = pair[which]
        tables.append(table)
        lanes.append(width)
        sizes.append(size)
        symbols.append(random_symbols(rng, kinds[which], table.shape[1] - 1, size))
        contexts.append(rng.integers(0, len(table), size=size))
    return tables, lanes, sizes, symbols, contexts


# An empty payload inside a batch (a one-token chunk has no delta symbols but
# 1,024 anchor symbols), alone, and beside payloads of very unequal step counts.
@example(seed=0, kinds=("small", "skewed"), drawn=[(0, 0, 1), (1, 512, 4), (0, 0, 1), (1, 512, 4)])
@example(seed=1, kinds=("uniform", "huge"), drawn=[(0, 0, 3)])
@example(seed=2, kinds=("huge", "small"), drawn=[(0, 600, 1), (1, 1, 1), (0, 7, 12), (1, 0, 5)])
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(TABLE_KINDS), st.sampled_from(TABLE_KINDS)),
    drawn=st.lists(payloads, min_size=1, max_size=6),
)
def test_every_payload_is_coded_as_if_alone(seed, kinds, drawn):
    tables, lanes, sizes, symbols, contexts = drawn_batch(seed, kinds, drawn)
    flat_contexts = np.concatenate(contexts)
    streams = ArithmeticEncoder(tables, lanes, sizes).encode(np.concatenate(symbols), flat_contexts)
    assert len(streams) == len(drawn)
    for stream, table, width, values, rows in zip(streams, tables, lanes, symbols, contexts):
        assert stream == ArithmeticEncoder(table, width).encode(values, rows)
    decoded = ArithmeticDecoder(tables, lanes, sizes).decode(streams, sum(sizes), flat_contexts)
    assert len(decoded) == len(drawn)
    for got, values in zip(decoded, symbols):
        np.testing.assert_array_equal(got, values)


@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(TABLE_KINDS), st.sampled_from(TABLE_KINDS)),
    drawn=st.lists(payloads, min_size=1, max_size=6),
)
def test_random_bytes_decode_as_if_alone(seed, kinds, drawn):
    """Whatever the bytes, a payload's symbols do not depend on its batch: the
    steps a shorter payload sits through decode discarded symbols only."""
    tables, lanes, sizes, _, contexts = drawn_batch(seed, kinds, drawn)
    rng = np.random.default_rng(seed + 1)
    streams = []
    for width in lanes:
        # A well-formed lane table (one-byte lengths) in front of random lanes.
        lengths = rng.integers(0, 12, size=width)
        body = rng.integers(0, 256, size=int(lengths.sum()), dtype=np.uint8)
        streams.append(bytes(lengths[:-1].astype(np.uint8)) + body.tobytes())
    decoded = ArithmeticDecoder(tables, lanes, sizes).decode(
        streams, sum(sizes), np.concatenate(contexts)
    )
    for got, stream, table, width, size, rows in zip(decoded, streams, tables, lanes, sizes, contexts):
        np.testing.assert_array_equal(got, ArithmeticDecoder(table, width).decode(stream, size, rows))


def test_payloads_of_one_table_object_share_its_validation(monkeypatch):
    validated = []
    validate = arithmetic_coder._as_cum_table
    monkeypatch.setattr(
        arithmetic_coder, "_as_cum_table", lambda table: validated.append(id(table)) or validate(table)
    )
    first, second = np.array([0, 5, 9, 10]), np.array([0, 1, 2])
    ArithmeticDecoder([first, second, first, second], [2, 1, 2, 1], [5, 0, 6, 3])
    assert sorted(validated) == sorted([id(first), id(second)])


# ----------------------------------------------------------------- the codec
@pytest.fixture(scope="module")
def exact_encoder(encoder: CacheGenEncoder) -> CacheGenEncoder:
    return CacheGenEncoder(encoder.config.replace(exact_entropy_coding=True), codec=encoder.codec)


def test_payloads_share_a_loop_while_their_lanes_fit():
    chunk = lambda tokens, anchors: [lane_count(1024 * n) for n in (tokens - anchors,) * 2 + (anchors,) * 2]
    assert chunk(40, 4) == [288, 288, 32, 32] and _batches(chunk(40, 4)) == [slice(0, 4)]
    assert chunk(65, 7) == [464, 464, 56, 56] and _batches(chunk(65, 7)) == [slice(0, 3), slice(3, 4)]
    assert _batches(chunk(256, 26)) == [slice(0, 1), slice(1, 2), slice(2, 4)]
    assert _batches(chunk(1500, 150)) == [slice(index, index + 1) for index in range(4)]
    assert _batches([]) == [] and _batches([5000]) == [slice(0, 1)]


@pytest.mark.parametrize("tokens", [1, 23, 65])
def test_a_chunk_is_one_batch_of_what_its_payloads_are_alone(exact_encoder, encoder, kv, tokens):
    """K-delta, V-delta, K-anchor, V-anchor through ``CacheGenEncoder.encode``
    are the bytes each gets from a one-payload ``EntropyCodec``.  One token is
    the chunk whose delta payloads are empty; 65 are two batches."""
    chunk = kv.slice_tokens(0, tokens)
    for level in encoder.config.levels:
        models = encoder.model_for_level(level)
        exact, estimated = exact_encoder.encode(chunk, level), encoder.encode(chunk, level)
        for got, carried in ((exact.k_stream, estimated.k_stream), (exact.v_stream, estimated.v_stream)):
            for model, payload, symbols in (
                (models.delta_model, got.delta_payload, carried.delta_payload.symbols),
                (models.anchor_model, got.anchor_payload, carried.anchor_payload.symbols),
            ):
                assert payload.shape == symbols.shape
                assert payload.data == EntropyCodec(model, exact=True).encode(symbols).data
        decoded = CacheGenDecoder(exact_encoder).decode(exact)
        reference = CacheGenDecoder(encoder).decode(estimated)
        assert np.array_equal(decoded.k, reference.k) and np.array_equal(decoded.v, reference.v)


def test_mixed_payloads_decode_in_order(encoder, kv):
    """Bitstreams and carried symbols in one call: only the former reach the coder."""
    models = encoder.model_for_level("medium")
    stream = encoder.encode(kv.slice_tokens(0, 23), "medium").k_stream
    delta, anchor = stream.delta_payload.symbols, stream.anchor_payload.symbols
    coded = encode_payloads([(models.delta_model, delta), (models.anchor_model, anchor)], exact=True)
    mixed = [
        (models.anchor_model, coded[1]),
        (models.delta_model, stream.delta_payload),
        (models.delta_model, coded[0]),
    ]
    for got, want in zip(decode_payloads(mixed), (anchor, delta, delta)):
        np.testing.assert_array_equal(got, want)


#: sha256 of (K-delta, K-anchor, V-delta, V-anchor) of the first 23 tokens of
#: the session's ``kv`` under the session's profile.  These are the format:
#: ``lane_count``, the 16-bit table quantisation, the lane tables and the WNC
#: arithmetic.  If a change moves them on purpose, say so in the PR.
GOLDEN = {
    "high": (
        "629359cbbe0b03dc6f3dbfe53cf75d4f5011182c8e27761ae50dc03c931c96ab",
        "2506faa06e0f2ac46097fe03079594728e5ec540f60d54a59c7bbe895cf03d9d",
        "2451118998cf0a4f509460a9f7a123df6805560d3da67c629626403c0a32fec1",
        "55978dd3e54cd24406395b967bc11ff123571584b9e645a17f87e94198080816",
    ),
    "medium": (
        "b76c4b18743f3ef7546b7226fccc8056b66ac381102d13698465d6e64074b685",
        "2506faa06e0f2ac46097fe03079594728e5ec540f60d54a59c7bbe895cf03d9d",
        "3bfc3ec869d05b7f2f0907b7cf2bf0872c24b3db1a719bf47be3bf8947ce2058",
        "55978dd3e54cd24406395b967bc11ff123571584b9e645a17f87e94198080816",
    ),
    "low": (
        "c66b0a3c1b6aa1021cbd44be1596cc409991a2fd87d672d9d367ca8d1ce44051",
        "2506faa06e0f2ac46097fe03079594728e5ec540f60d54a59c7bbe895cf03d9d",
        "67f5549e12d5b9248b565c526af53d51cc1daaa1614105f2feb108e84388f3c7",
        "55978dd3e54cd24406395b967bc11ff123571584b9e645a17f87e94198080816",
    ),
    "lowest": (
        "733434a1a6a8f5ae666a68ba92800aa6f0f6fa632e2baf67dc7713d9bd1bb5df",
        "c7e8ee84958ad36a847a60336b0508ccebdd2e5b019213463fb1ea92974e0d08",
        "d055272f4dac82529f9a745fea890f5c423f5eba5517b83e5fc892f6dc772e0d",
        "93e340066461370757f2e953c13d17e076c9acd6fb46b9a42237b35e68b39854",
    ),
}


@pytest.mark.parametrize("level", ["high", "medium", "low", "lowest"])
def test_golden_bitstreams(exact_encoder, kv, level):
    encoded = exact_encoder.encode(kv.slice_tokens(0, 23), level)
    payloads = [
        payload
        for stream in (encoded.k_stream, encoded.v_stream)
        for payload in (stream.delta_payload, stream.anchor_payload)
    ]
    assert [lane_count(int(np.prod(payload.shape))) for payload in payloads] == [160, 24, 160, 24]
    assert tuple(hashlib.sha256(payload.data).hexdigest() for payload in payloads) == GOLDEN[level]
