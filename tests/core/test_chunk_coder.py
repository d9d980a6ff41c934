"""The batch coder against the single-payload coder, and a golden of the format.

``ArithmeticEncoder(tables, lanes, sizes)`` advances the lanes of several
payloads in one loop.  Its contract is that batching is invisible: every
payload's bytes are what ``ArithmeticEncoder(table, lanes)`` writes for that
payload alone — which ``test_lane_coder.py`` holds, lane by lane, to the scalar
coder — and the decoder returns what the single-payload decoder returns,
garbage included.

A fitted model hands the coder a band table: cumulative counts over the
symbols its fit saw, and one frequency for every symbol outside them.  The
coder holds no other form, so it must code a band table exactly as it codes
the dense table the band stands for, symbols outside the band included.

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
from repro.core.arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder, BandTable
from repro.core.entropy_codec import (
    _batches,
    decode_payloads,
    encode_payloads,
    lane_count,
)
from repro.core.probability_model import ALPHABET_SIZE, SymbolProbabilityModel
from repro.core.quantization import SYMBOL_CLIP

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


# ------------------------------------------------------------ band tables
def narrow_band(rng, lo: int, span: int, tokens: int) -> BandTable:
    """The band table of a model fitted on ``tokens`` tokens of symbols in ``lo .. lo + span``."""
    fitted = rng.integers(lo, min(lo + span, SYMBOL_CLIP) + 1, size=(2, tokens, 3))
    table = SymbolProbabilityModel.fit(fitted).cumulative_band()
    assert table.width == (fitted.max() - fitted.min() + 1 if tokens else 0)
    return table


def wide_symbols(rng, start: int, stop: int, size: int) -> np.ndarray:
    """Alphabet indices below, inside and above the band ``start .. stop - 1``.

    A third each, where the alphabet has symbols on that side.
    """
    sides = [(0, start), (start, stop), (stop, ALPHABET_SIZE)]
    sides = [side for side in sides if side[1] > side[0]]
    picked = rng.integers(0, len(sides), size=size)
    low = np.array([side[0] for side in sides])[picked]
    high = np.array([side[1] for side in sides])[picked]
    return low + (rng.random(size) * (high - low)).astype(np.int64)


def outside(table: BandTable) -> int:
    """A symbol outside the band: the first if the band leaves it, else the last."""
    return 0 if table.start > 0 else table.alphabet - 1


@example(seed=0, spans=(18, 0), tokens=(5, 0), drawn=[(40, 3), (7, 1), (30, 2)])
@example(seed=1, spans=(0, 510), tokens=(1, 4), drawn=[(1, 1), (0, 2), (1, 1)])
@given(
    seed=st.integers(0, 2**32 - 1),
    spans=st.tuples(st.integers(0, 2 * SYMBOL_CLIP), st.integers(0, 2 * SYMBOL_CLIP)),
    tokens=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    drawn=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 9)), min_size=3, max_size=5),
)
def test_band_tables_code_as_their_dense_tables(seed, spans, tokens, drawn):
    """Two models fitted on narrow data, coded on wide data in one batch beside
    a dense table, the first and the last band table in the search table each
    with an out-of-band symbol in its edge row: the bytes, the decode and the
    decode of garbage are the dense tables' exactly.  Zero tokens fit a model
    whose band is empty, so that every symbol lies outside it."""
    rng = np.random.default_rng(seed)
    first, last = (
        narrow_band(rng, int(rng.integers(-SYMBOL_CLIP, SYMBOL_CLIP + 1)), span, count)
        for span, count in zip(spans, tokens)
    )
    other = random_table(rng, "small", 2, ALPHABET_SIZE)
    # The first payload's table leads the search table, the last one's ends it.
    tables = [first] + [(other, first)[index % 2] for index in range(len(drawn) - 2)] + [last]
    dense = {id(first): first.dense(), id(last): last.dense(), id(other): other}
    dense_tables = [dense[id(table)] for table in tables]
    sizes = [size for size, _ in drawn]
    lanes = [width for _, width in drawn]
    symbols, contexts = [], []
    for table, size in zip(tables, sizes):
        if table is other:
            symbols.append(wide_symbols(rng, 0, ALPHABET_SIZE, size))
        else:
            symbols.append(wide_symbols(rng, table.start, table.stop, size))
        contexts.append(rng.integers(0, len(dense[id(table)]), size=size))
    symbols[0][0], contexts[0][0] = outside(first), 0
    symbols[-1][0], contexts[-1][0] = outside(last), len(last.band) - 1
    flat_symbols, flat_contexts = np.concatenate(symbols), np.concatenate(contexts)

    streams = ArithmeticEncoder(tables, lanes, sizes).encode(flat_symbols, flat_contexts)
    assert streams == ArithmeticEncoder(dense_tables, lanes, sizes).encode(
        flat_symbols, flat_contexts
    )
    decoded = ArithmeticDecoder(tables, lanes, sizes).decode(streams, sum(sizes), flat_contexts)
    for got, want in zip(decoded, symbols):
        np.testing.assert_array_equal(got, want)

    garbage = []
    for width in lanes:
        lengths = rng.integers(0, 12, size=width)
        body = rng.integers(0, 256, size=int(lengths.sum()), dtype=np.uint8)
        garbage.append(bytes(lengths[:-1].astype(np.uint8)) + body.tobytes())
    got = ArithmeticDecoder(tables, lanes, sizes).decode(garbage, sum(sizes), flat_contexts)
    want = ArithmeticDecoder(dense_tables, lanes, sizes).decode(garbage, sum(sizes), flat_contexts)
    for band_decode, dense_decode in zip(got, want):
        np.testing.assert_array_equal(band_decode, dense_decode)
        assert np.all((0 <= band_decode) & (band_decode < ALPHABET_SIZE))


def test_a_band_table_is_checked_as_its_dense_table_is():
    """The coder keeps every check of the dense form: a table starts at 0,
    every frequency (the out-of-band one too) is at least 1, and the total
    stays within the precision budget."""
    good = BandTable(np.array([[4, 9, 11]]), np.array([2]), start=2, alphabet=6)
    symbols = [0, 1, 2, 3, 4, 5]
    assert ArithmeticEncoder(good).encode(symbols) == ArithmeticEncoder(good.dense()).encode(
        symbols
    )
    for table, message in (
        (BandTable(np.array([[5, 9, 11]]), np.array([2]), 2, 6), "start at 0"),
        (BandTable(np.array([[4, 9, 9]]), np.array([2]), 2, 6), "strictly positive"),
        (BandTable(np.array([[0, 9, 11]]), np.array([0]), 2, 6), "strictly positive"),
        (BandTable(np.array([[2, 2**30, 2**30 + 1]]), np.array([1]), 2, 6), "precision budget"),
        (BandTable(np.array([[4, 9, 11]]), np.array([2]), 5, 6), "within the alphabet"),
    ):
        with pytest.raises(ValueError, match=message):
            ArithmeticDecoder(table)


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
    are the bytes each gets coded alone.  One token is
    the chunk whose delta payloads are empty; 65 are two batches."""
    chunk = kv.slice_tokens(0, tokens)
    for level in encoder.config.levels:
        models = encoder.model_for_level(level)
        exact, estimated = exact_encoder.encode(chunk, level), encoder.encode(chunk, level)
        streams = (exact.k_stream, exact.v_stream)
        for got, (delta, anchor) in zip(streams, encoder.quantize(chunk, level)):
            for model, payload, symbols in (
                (models.delta_model, got.delta_payload, delta.symbols),
                (models.anchor_model, got.anchor_payload, anchor.symbols),
            ):
                assert payload.shape == symbols.shape
                assert payload.data == encode_payloads([(model, symbols)], True)[0].data
        decoded = CacheGenDecoder(exact_encoder).decode(exact)
        reference = CacheGenDecoder(encoder).decode(estimated)
        assert np.array_equal(decoded.k, reference.k) and np.array_equal(decoded.v, reference.v)


def test_payloads_decode_in_order_and_estimated_ones_are_refused(encoder, kv):
    """Bitstreams of several models in one call come back in order; an
    estimated payload among them holds no symbols, so the call is refused."""
    models = encoder.model_for_level("medium")
    chunk = kv.slice_tokens(0, 23)
    (delta, anchor), _ = encoder.quantize(chunk, "medium")
    coded = encode_payloads(
        [(models.delta_model, delta.symbols), (models.anchor_model, anchor.symbols)], exact=True
    )
    ordered = [(models.anchor_model, coded[1]), (models.delta_model, coded[0])]
    for got, want in zip(decode_payloads(ordered), (anchor, delta)):
        np.testing.assert_array_equal(got, want.symbols)
    estimated = encoder.encode(chunk, "medium").k_stream.delta_payload
    with pytest.raises(ValueError, match="decode the EncodedKV"):
        decode_payloads(ordered + [(models.delta_model, estimated)])


#: sha256 of (K-delta, K-anchor, V-delta, V-anchor) of the first 23 tokens of
#: the session's ``kv`` under the session's profile.  These are the format:
#: ``lane_count``, the 16-bit table quantisation, the lane tables and the WNC
#: arithmetic.  If a change moves them on purpose, say so in the PR.
GOLDEN = {
    "high": (
        "a319097f6eb5dcd9ae055e64f3befda15e31497170d1e1cd8b0f496160dabaf9",
        "6f84d9304258f636c4bba6e3f3a6e83d30525e5194446ab082fb28a6969a8234",
        "b8d46525d9d6f40015195fe91107377c6a8f5fcc7737dcc87ebf840a3c7ed73d",
        "678b8c9c05f38554d6bde7b4f3ad800b320510626df6ddb5112f6a88a4e52ce2",
    ),
    "medium": (
        "739f2fa96dbb63cde3e5601d4ea76ed93c390473291fb340e453b54f80535868",
        "6f84d9304258f636c4bba6e3f3a6e83d30525e5194446ab082fb28a6969a8234",
        "91465716a15f0c2f31b5526a21171ff119fed06b444e0e9854d9ee8e6b391b3d",
        "678b8c9c05f38554d6bde7b4f3ad800b320510626df6ddb5112f6a88a4e52ce2",
    ),
    "low": (
        "4c97c5a76592e16367bab0319935b74007eebcd8c98e598232d981a97c811c11",
        "6f84d9304258f636c4bba6e3f3a6e83d30525e5194446ab082fb28a6969a8234",
        "ae6fbce20d0bd23eb749fec9a13919f7a4cef97b25bd63773240b6bc43342f3f",
        "678b8c9c05f38554d6bde7b4f3ad800b320510626df6ddb5112f6a88a4e52ce2",
    ),
    "lowest": (
        "13b700606d33aee4738d0892cacd0bfbdb939991a3dc75658765829a986c73be",
        "adb52b956c1505b04241eb63348a27acb973d5f7b4be3f14cdf773fb103242eb",
        "13f74e1140cc6d34793bff0fdb5ef88ff4558b1d0af2cb54ed0315eb1b2027b1",
        "44ece35ccc1bae3382b23b9fe4f77391213498711631ded07efdd25f9a9ca4cb",
    ),
}

#: sha256 of the K and V bytes the golden codes: the 23-token chunk, then the
#: session's two ``sample_caches`` its profile is fitted on.  A failure here
#: says the input moved, not the codec.
GOLDEN_INPUT = "e3b5371caf27423c989bc1c5a9013b28c19eac19cdcf7e6fe72dd43b98c39073"


def test_golden_input_tensors(kv, sample_caches):
    digest = hashlib.sha256()
    for tensors in (kv.slice_tokens(0, 23), *sample_caches):
        digest.update(tensors.k.tobytes() + tensors.v.tobytes())
    assert digest.hexdigest() == GOLDEN_INPUT


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
