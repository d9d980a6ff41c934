"""Round-trip properties of the codec under exact entropy coding.

The estimated path carries the quantized symbols verbatim, so its decode is
what a lossless entropy coder must reproduce: for any KV cache, level and
token count, ``exact_entropy_coding=True`` has to decode ``np.array_equal`` to
it.  The token counts straddle every boundary a chunk can sit on — a lone
anchor (no delta symbols at all), one anchor group give or take a token, one
chunk give or take a token.

The grid of boundaries runs on every invocation (explicit examples); the
random draws on top of it take their budget from the hypothesis profile
(``tests/conftest.py``): 25 in tier-1, 250 in CI's ``codec-fuzz`` step.

The estimated path's symbols are stored at their narrowest width
(``narrowest_symbols``: ``int8`` when their range fits, else ``int16``); the
width rule holds, the values never change and decoding does not see it.

A probability model stores only the symbol band its fit spans; every table
it hands out, and its score of symbols anywhere in the alphabet, equal the
dense fit's (``DenseFit``, kept in ``test_ingest_fast_path.py``).
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_ingest_fast_path import DenseFit, assert_tables_equal, dense_cross_entropy_bits

from repro.core import CacheGenDecoder, CacheGenEncoder, KVCache
from repro.core.arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder, _split_lanes
from repro.core.encoder import EncodedTensorStream
from repro.core.entropy_codec import LANE_SYMBOLS, MAX_LANES, lane_count
from repro.core.probability_model import SymbolProbabilityModel
from repro.core.quantization import SYMBOL_CLIP, narrowest_symbols

CHUNK_TOKENS = 64
LEVELS = ("high", "medium", "low", "lowest")
#: group_size is 10: 9, 10, 11 straddle one anchor group.
TOKEN_COUNTS = (1, 9, 10, 11, CHUNK_TOKENS - 1, CHUNK_TOKENS, CHUNK_TOKENS + 1)


@pytest.fixture(scope="module")
def codecs(encoder: CacheGenEncoder):
    """``(exact encoder, its decoder, estimated encoder, its decoder)`` over one profile."""
    config = encoder.config.replace(chunk_tokens=CHUNK_TOKENS)
    exact = CacheGenEncoder(config.replace(exact_entropy_coding=True), codec=encoder.codec)
    estimated = CacheGenEncoder(config, codec=encoder.codec)
    return exact, CacheGenDecoder(exact), estimated, CacheGenDecoder(estimated)


def on_the_whole_grid(test):
    for tokens in TOKEN_COUNTS:
        for level in LEVELS:
            test = example(seed=tokens, tokens=tokens, level=level)(test)
    return test


@on_the_whole_grid
@given(
    seed=st.integers(0, 2**32 - 1),
    tokens=st.sampled_from(TOKEN_COUNTS),
    level=st.sampled_from(LEVELS),
)
def test_exact_decode_equals_estimated_decode(codecs, kv, seed, tokens, level):
    exact, exact_decoder, estimated, estimated_decoder = codecs
    rng = np.random.default_rng(seed)
    layers, _, channels = kv.shape
    # Heavy tails: symbols reach the clip and table entries of frequency one.
    cache = KVCache(
        k=rng.standard_t(2, size=(layers, tokens, channels)),
        v=rng.standard_t(2, size=(layers, tokens, channels)),
        model_name=kv.model_name,
        full_layers=kv.full_layers,
        full_channels=kv.full_channels,
    )
    encoded = exact.encode(cache, level)
    for stream in (encoded.k_stream, encoded.v_stream):
        assert stream.delta_payload.exact and stream.anchor_payload.exact
    decoded = exact_decoder.decode(encoded)
    reference = estimated_decoder.decode(estimated.encode(cache, level))
    assert np.array_equal(decoded.k, reference.k)
    assert np.array_equal(decoded.v, reference.v)


INT8 = np.iinfo(np.int8)


def fits_int8(symbols: np.ndarray) -> bool:
    return symbols.size == 0 or (INT8.min <= symbols.min() and symbols.max() <= INT8.max)


@example(seed=0, lo=INT8.min, span=INT8.max - INT8.min, tokens=5, dtype=np.int32)
@example(seed=0, lo=INT8.min - 1, span=0, tokens=5, dtype=np.int16)
@example(seed=0, lo=INT8.max + 1, span=0, tokens=5, dtype=np.int64)
@example(seed=0, lo=0, span=0, tokens=0, dtype=np.int8)
@given(
    seed=st.integers(0, 2**32 - 1),
    lo=st.integers(-SYMBOL_CLIP, SYMBOL_CLIP),
    span=st.integers(0, 2 * SYMBOL_CLIP),
    tokens=st.integers(0, 9),
    dtype=st.sampled_from((np.int8, np.int16, np.int32, np.int64)),
)
def test_narrowest_symbols_width_rule(seed, lo, span, tokens, dtype):
    """``int8`` exactly when every value fits it (an empty tensor does), else
    ``int16``; the values never change, and a tensor already at its width is
    not copied."""
    hi = min(lo + span, SYMBOL_CLIP)
    symbols = np.random.default_rng(seed).integers(lo, hi + 1, size=(3, tokens, 2))
    fits = fits_int8(symbols)
    assume(fits or dtype != np.int8)
    symbols = symbols.astype(dtype)
    narrow = narrowest_symbols(symbols)
    assert narrow.dtype == (np.int8 if fits else np.int16)
    assert np.array_equal(narrow, symbols)
    assert (narrow is symbols) == (narrow.dtype == symbols.dtype)


@example(seed=0, grouping="channel_layer", fit_lo=-9, fit_span=18, lo=100, span=40, tokens=5)
@example(seed=0, grouping="layer", fit_lo=-9, fit_span=18, lo=-255, span=510, tokens=5)
@example(seed=0, grouping="global", fit_lo=0, fit_span=0, lo=0, span=0, tokens=0)
@given(
    seed=st.integers(0, 2**32 - 1),
    grouping=st.sampled_from(("channel_layer", "layer", "channel", "token", "global")),
    fit_lo=st.integers(-SYMBOL_CLIP, SYMBOL_CLIP),
    fit_span=st.integers(0, 2 * SYMBOL_CLIP),
    lo=st.integers(-SYMBOL_CLIP, SYMBOL_CLIP),
    span=st.integers(0, 2 * SYMBOL_CLIP),
    tokens=st.integers(0, 9),
)
def test_banded_model_equals_dense_fit(seed, grouping, fit_lo, fit_span, lo, span, tokens):
    """A model keeps only the band its fit spans; its dense tables, its coder
    table and its score of data anywhere in the alphabet — inside, straddling or
    wholly outside that band — equal the dense fit's, compared with ``==``."""
    rng = np.random.default_rng(seed)
    shape = (3, tokens, 2)

    def draw(lo, span):
        return narrowest_symbols(rng.integers(lo, min(lo + span, SYMBOL_CLIP) + 1, size=shape))

    fitted = [draw(fit_lo, fit_span), draw(fit_lo, fit_span // 2)]
    model = SymbolProbabilityModel.fit(fitted, grouping=grouping)
    dense = DenseFit.fit(fitted, grouping)
    width = max(int(t.max()) for t in fitted) - model.lo + 1 if tokens else 0
    assert model.band.shape[1] == width
    assert_tables_equal(model, dense)
    symbols = draw(lo, span)
    assert model.cross_entropy_bits(symbols) == dense_cross_entropy_bits(dense, symbols)


def _at_int16(stream: EncodedTensorStream) -> EncodedTensorStream:
    def widened(payload):
        return replace(payload, symbols=payload.symbols.astype(np.int16))

    return replace(
        stream,
        delta_payload=widened(stream.delta_payload),
        anchor_payload=widened(stream.anchor_payload),
    )


@example(seed=0, heavy_tails=False, tokens=CHUNK_TOKENS, level="high")
@example(seed=0, heavy_tails=True, tokens=CHUNK_TOKENS, level="high")
@given(
    seed=st.integers(0, 2**32 - 1),
    heavy_tails=st.booleans(),
    tokens=st.sampled_from(TOKEN_COUNTS),
    level=st.sampled_from(LEVELS),
)
def test_narrow_payloads_decode_like_int16_ones(codecs, kv, seed, heavy_tails, tokens, level):
    """Estimated payloads carry ``int8`` symbols when their range fits (Gaussian
    caches: always), ``int16`` when it does not (heavy tails reach the clip);
    either way the decoder reconstructs what the same symbols at ``int16`` give."""
    _, _, estimated, decoder = codecs
    rng = np.random.default_rng(seed)
    layers, _, channels = kv.shape
    draw = (lambda size: rng.standard_t(2, size=size)) if heavy_tails else rng.standard_normal
    cache = KVCache(
        k=draw((layers, tokens, channels)),
        v=draw((layers, tokens, channels)),
        model_name=kv.model_name,
        full_layers=kv.full_layers,
        full_channels=kv.full_channels,
    )
    encoded = estimated.encode(cache, level)
    for stream in (encoded.k_stream, encoded.v_stream):
        for payload in (stream.delta_payload, stream.anchor_payload):
            fits = fits_int8(payload.symbols)
            assert fits or heavy_tails
            assert payload.symbols.dtype == (np.int8 if fits else np.int16)
    wide = replace(
        encoded, k_stream=_at_int16(encoded.k_stream), v_stream=_at_int16(encoded.v_stream)
    )
    decoded, reference = decoder.decode(encoded), decoder.decode(wide)
    assert np.array_equal(decoded.k, reference.k)
    assert np.array_equal(decoded.v, reference.v)


def test_one_table_per_model_per_call(codecs, kv, monkeypatch):
    """K-delta, K-anchor, V-delta and V-anchor of a call are one batch: one
    coder, one loop, and one cumulative table per model (they cost more to
    derive than a small chunk costs to code).  The estimated path derives no
    table and builds no coder at all."""
    exact, exact_decoder, estimated, estimated_decoder = codecs
    derived, coders = [], []
    derive = SymbolProbabilityModel.cumulative_counts
    monkeypatch.setattr(
        SymbolProbabilityModel,
        "cumulative_counts",
        lambda model, *args: derived.append(id(model)) or derive(model, *args),
    )
    for kind in (ArithmeticEncoder, ArithmeticDecoder):
        build = kind.__init__
        monkeypatch.setattr(
            kind,
            "__init__",
            lambda coder, *args, _build=build: coders.append(type(coder)) or _build(coder, *args),
        )
    chunk = kv.slice_tokens(0, 30)
    models = exact.model_for_level("low")
    both = sorted([id(models.delta_model), id(models.anchor_model)])

    encoded = exact.encode(chunk, "low")
    assert sorted(derived) == both and coders == [ArithmeticEncoder]
    exact_decoder.decode(encoded)
    assert sorted(derived[2:]) == both and coders[1:] == [ArithmeticDecoder]
    # Levels that share an anchor model share its payloads: within one
    # preparation only the first of them codes (and derives a table for) anchors.
    del derived[:], coders[:]
    exact.encode_all_levels(chunk)
    anchor_models = {id(exact.model_for_level(level).anchor_model) for level in LEVELS}
    assert len(derived) == len(LEVELS) + len(anchor_models) < 2 * len(LEVELS)
    assert coders == [ArithmeticEncoder] * len(LEVELS)

    del derived[:], coders[:]
    estimated_decoder.decode(estimated.encode(chunk, "low"))
    estimated.encode_all_levels(chunk)
    assert derived == [] and coders == []


#: What exact coding may leave allocated once its results are dropped.  The
#: coder keeps nothing — every table is derived for a call and dies with it —
#: so this is slack for interpreter noise, not a table: one model's table is
#: 2 MiB, and the ceiling this repo set itself for all of them is 3 MiB.
RESIDENT_BUDGET_BYTES = 64 * 1024


def test_exact_coding_leaves_nothing_resident(codecs, kv):
    """After an exact encode and decode at every level, the encoder, the
    decoder and the ``FittedCodec`` (everything else is dropped) hold no more
    than before: no frequency, cumulative or search table stays behind."""
    exact, exact_decoder, _, _ = codecs
    delta_model = exact.model_for_level("low").delta_model
    assert delta_model.counts.shape == (1024, 511)
    chunk = kv.slice_tokens(0, 30)
    exact_decoder.decode(exact.encode(chunk, "low"))  # lazy imports and caches are not residency
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for level in LEVELS:
            exact_decoder.decode(exact.encode(chunk, level))
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= RESIDENT_BUDGET_BYTES
    assert peak - before > 4 * 2**20  # the tables were there: two of 2 MiB and a search table


class TestLaneOverhead:
    """What the lane layout costs in bytes, at benchmark and at paper-like chunk sizes."""

    def test_lane_count_is_a_function_of_the_size_alone(self):
        assert [lane_count(n) for n in (0, 1, LANE_SYMBOLS, 2 * LANE_SYMBOLS - 1, 2 * LANE_SYMBOLS)] == [
            1, 1, 1, 1, 2,
        ]
        assert lane_count(MAX_LANES * LANE_SYMBOLS - 1) == MAX_LANES - 1
        assert lane_count(10**9) == MAX_LANES

    def test_lane_table_under_one_and_a_half_percent_at_512_tokens(self, codecs, kv):
        """Past ``MAX_LANES * LANE_SYMBOLS`` symbols the lane count stops growing,
        so the table's share of the payload shrinks with the chunk."""
        exact, _, estimated, _ = codecs
        chunk = kv.slice_tokens(0, 512)
        encoded, reference = exact.encode(chunk), estimated.encode(chunk)
        table_bytes = 0
        for stream in (encoded.k_stream, encoded.v_stream):
            assert lane_count(int(np.prod(stream.delta_payload.shape))) == MAX_LANES
            for payload in (stream.delta_payload, stream.anchor_payload):
                raw = np.frombuffer(payload.data, dtype=np.uint8)
                body, _ = _split_lanes(raw, lane_count(int(np.prod(payload.shape))))
                table_bytes += len(raw) - len(body)
        assert 8 * table_bytes < 0.015 * encoded.payload_bits
        assert encoded.payload_bits < 1.02 * reference.payload_bits
