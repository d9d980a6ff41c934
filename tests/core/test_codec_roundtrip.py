"""Round-trip properties of the codec under exact entropy coding.

The estimated path decodes by quantizing the encoded chunk again, so its
decode is the lossy half of the codec alone, which is what a lossless entropy
coder must reproduce: for any KV cache, level and token count,
``exact_entropy_coding=True`` has to decode ``np.array_equal`` to it.  The
token counts straddle every boundary a chunk can sit on — a lone anchor (no
delta symbols at all), one anchor group give or take a token, one chunk give
or take a token.

The grid of boundaries runs on every invocation (explicit examples); the
random draws on top of it take their budget from the hypothesis profile
(``tests/conftest.py``): 25 in tier-1, 250 in CI's ``codec-fuzz`` step.

A probability model stores only the symbol band its fit spans; every table
it hands out, and its score of symbols anywhere in the alphabet, equal the
dense fit's (``DenseFit``, kept in ``test_ingest_fast_path.py``).
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_ingest_fast_path import DenseFit, assert_scores_dense, assert_tables_equal

from conftest import encode_all_levels
from repro.core import CacheGenDecoder, CacheGenEncoder, FittedCodec, KVCache
from repro.core.arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder, _split_lanes
from repro.core.entropy_codec import LANE_SYMBOLS, MAX_LANES, lane_count
from repro.core.probability_model import SymbolProbabilityModel
from repro.core.quantization import SYMBOL_CLIP

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
        return rng.integers(lo, min(lo + span, SYMBOL_CLIP) + 1, size=shape, dtype=np.int32)

    fitted = [draw(fit_lo, fit_span), draw(fit_lo, fit_span // 2)]
    model = SymbolProbabilityModel.fit(fitted, grouping=grouping)
    dense = DenseFit.fit(fitted, grouping)
    width = max(int(t.max()) for t in fitted) - model.lo + 1 if tokens else 0
    assert model.band.shape[1] == width
    assert_tables_equal(model, dense)
    assert_scores_dense(model, draw(lo, span), dense)


@pytest.fixture
def fresh_codecs(encoder: CacheGenEncoder, tmp_path):
    """``codecs`` on a copy of the profile whose models have coded nothing yet."""
    path = tmp_path / "profile.npz"
    encoder.codec.save(path, "fresh")
    config = encoder.config.replace(chunk_tokens=CHUNK_TOKENS)
    codec = FittedCodec.load(path, config, "fresh")
    exact = CacheGenEncoder(config.replace(exact_entropy_coding=True), codec=codec)
    estimated = CacheGenEncoder(config, codec=codec)
    return exact, CacheGenDecoder(exact), estimated, CacheGenDecoder(estimated)


def coded_models(encoder: CacheGenEncoder) -> dict[int, SymbolProbabilityModel]:
    """Every model of ``encoder``'s levels, by ``id``."""
    return {
        id(model): model
        for level in LEVELS
        for both in [encoder.model_for_level(level)]
        for model in (both.delta_model, both.anchor_model)
    }


def test_one_table_per_model(fresh_codecs, kv, monkeypatch):
    """K-delta, K-anchor, V-delta and V-anchor of a call are one batch: one
    coder and one loop.  A model derives its band table at its first exact
    call and keeps it, so over two full rounds — every level encoded and
    decoded — each model derives it exactly once.  The estimated path
    derives no table and builds no coder at all."""
    exact, exact_decoder, estimated, estimated_decoder = fresh_codecs
    derived, coders, handed = [], [], []
    derive = SymbolProbabilityModel.cumulative_band
    monkeypatch.setattr(
        SymbolProbabilityModel,
        "cumulative_band",
        lambda model, *args: derived.append(id(model)) or derive(model, *args),
    )
    for kind in (ArithmeticEncoder, ArithmeticDecoder):
        build = kind.__init__

        def spy(coder, tables, *args, _build=build):
            coders.append(type(coder))
            handed.append(len(tables))
            _build(coder, tables, *args)

        monkeypatch.setattr(kind, "__init__", spy)
    chunk = kv.slice_tokens(0, 30)
    models = exact.model_for_level("low")
    both = sorted([id(models.delta_model), id(models.anchor_model)])

    encoded = exact.encode(chunk, "low")
    assert sorted(derived) == both and coders == [ArithmeticEncoder]
    exact_decoder.decode(encoded)
    assert sorted(derived) == both and coders[1:] == [ArithmeticDecoder]
    del coders[:], handed[:]
    for _ in range(2):
        for level in LEVELS:
            exact_decoder.decode(exact.encode(chunk, level))
    assert sorted(derived) == sorted(coded_models(exact))
    assert coders == [ArithmeticEncoder, ArithmeticDecoder] * (2 * len(LEVELS))
    # Levels that share an anchor model share its payloads: within one
    # preparation only the first of them codes anchors.
    del coders[:], handed[:]
    encode_all_levels(exact, chunk)
    anchor_models = {id(exact.model_for_level(level).anchor_model) for level in LEVELS}
    assert coders == [ArithmeticEncoder] * len(LEVELS)
    assert sum(handed) == 2 * (len(LEVELS) + len(anchor_models)) < 4 * len(LEVELS)

    del derived[:], coders[:]
    estimated_decoder.decode(estimated.encode(chunk, "low"))
    encode_all_levels(estimated, chunk)
    assert derived == [] and coders == []


def test_a_model_keeps_its_derived_table(fresh_codecs, kv, monkeypatch):
    """The table a model keeps is the one ``cumulative_band()`` derives, it
    is the very object both directions code with, and nothing can write it."""
    exact, exact_decoder, _, _ = fresh_codecs
    models = exact.model_for_level("medium")
    handed = {ArithmeticEncoder: [], ArithmeticDecoder: []}
    for kind in handed:
        build = kind.__init__

        def spy(coder, tables, *args, _build=build):
            handed[type(coder)].extend(tables)
            _build(coder, tables, *args)

        monkeypatch.setattr(kind, "__init__", spy)
    exact_decoder.decode(exact.encode(kv.slice_tokens(0, 30), "medium"))
    for model in (models.delta_model, models.anchor_model):
        kept, fresh = model._band_table, model.cumulative_band()
        assert kept is not None and kept is model._coder_table()
        assert (kept.start, kept.alphabet) == (fresh.start, fresh.alphabet)
        np.testing.assert_array_equal(kept.band, fresh.band)
        np.testing.assert_array_equal(kept.outside, fresh.outside)
        for tables in handed.values():
            # Its K and V payloads, in the encoder and in the decoder alike.
            assert sum(table is kept for table in tables) == 2
        for array in (kept.band, kept.outside):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


#: What exact coding may leave allocated besides the models' coder tables,
#: once its results are dropped: slack for interpreter noise, not a table.
#: One model's band table is 0.07-1 MiB (its dense table 2 MiB).
RESIDENT_BUDGET_BYTES = 64 * 1024


def kept_table_bytes(encoder: CacheGenEncoder) -> int:
    tables = [model._band_table for model in coded_models(encoder).values()]
    return sum(table.band.nbytes + table.outside.nbytes for table in tables if table is not None)


def traced_round(exact, exact_decoder, chunk) -> tuple[int, int]:
    """``(held after, peak)`` above what was held before: one exact round at every level."""
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
    return after - before, peak - before


def test_the_first_exact_round_keeps_the_coder_tables_and_nothing_else(
    codecs, fresh_codecs, kv
):
    """The first exact encode and decode at every level leaves the models'
    coder tables behind, and at most ``RESIDENT_BUDGET_BYTES`` besides."""
    exact, exact_decoder, _, _ = fresh_codecs
    assert exact.model_for_level("low").delta_model.counts.shape == (1024, 511)
    chunk = kv.slice_tokens(0, 30)
    # Lazy imports and caches are not residency: a round on other models first.
    warm, warm_decoder, _, _ = codecs
    warm_decoder.decode(warm.encode(chunk, "low"))
    assert kept_table_bytes(exact) == 0
    held, _ = traced_round(exact, exact_decoder, chunk)
    tables = kept_table_bytes(exact)
    assert all(model._band_table is not None for model in coded_models(exact).values())
    assert 0 < held <= tables + RESIDENT_BUDGET_BYTES


def test_a_second_exact_round_leaves_nothing_resident(codecs, kv):
    """Once every level has coded, another exact round at every level holds
    no more than before: no frequency, cumulative or search table stays behind."""
    exact, exact_decoder, _, _ = codecs
    chunk = kv.slice_tokens(0, 30)
    for level in LEVELS:  # the tables, lazy imports and caches are not residency
        exact_decoder.decode(exact.encode(chunk, level))
    held, peak = traced_round(exact, exact_decoder, chunk)
    assert held <= RESIDENT_BUDGET_BYTES
    # The work tables were there: at the widest level, its two band tables'
    # search table in the decoder, which is as large as they are.
    widest = max(
        sum(model._coder_table().band.nbytes for model in (both.delta_model, both.anchor_model))
        for both in (exact.model_for_level(level) for level in LEVELS)
    )
    assert peak > widest


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
