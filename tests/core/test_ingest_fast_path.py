"""Exactness oracles for the ingest fast path.

A model stores only the band of symbol values its fit saw,
``cumulative_counts`` works floats over that band alone,
``cross_entropy_bits`` counts and multiplies only the band of symbol values
present, and ``encode_with_errors`` prepares a cache once for every level.
All of them must give *equal* results — not close ones — to the plain
formulations: the dense ``(num_contexts, 511)`` fit, table derivation and
scoring formula kept here as the reference (:class:`DenseFit`,
:func:`dense_cross_entropy_bits`), and ``encode`` called once per level on the
cache itself.  A score is the dense products summed in one fixed order (rows
folded pairwise, then columns left to right); numpy's pairwise sum of the
same products, the order scores were once defined by, stays within 1e-12 of
it (:func:`pairwise_dense_bits`).
"""

from __future__ import annotations

import gc
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.serving.engine
from conftest import encode_all_levels
from repro import ServeRequest, ServingSpec, serve
from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, EncodingLevel
from repro.core.encoder import _PreparedKV
from repro.core.kv_cache import layer_blocks
from repro.core.probability_model import (
    ALPHABET_SIZE,
    MAX_QUANTIZE_TOTAL,
    SYMBOL_OFFSET,
    _SCORE_BLOCK_COLUMNS,
    SymbolProbabilityModel,
    _fold_sum,
)
from repro.serving.engine import profile_codec
from repro.streaming import prepare_chunks

GROUPINGS = ("channel_layer", "layer", "channel", "token", "global")
SHAPES = ((32, 115, 32), (32, 13, 32), (3, 1, 4), (2, 0, 2))
#: Symbol ranges: a narrow band, a one-sided band, the full alphabet.
RANGES = ((-7, 6), (0, 40), (-255, 255))


def dense_context_ids(shape, grouping):
    layers, tokens, channels = shape
    grid = {
        "channel_layer": np.arange(layers)[:, None, None] * channels
        + np.arange(channels)[None, None, :],
        "layer": np.arange(layers)[:, None, None],
        "channel": np.arange(channels)[None, None, :],
        "token": np.arange(tokens)[None, :, None],
        "global": np.zeros((1, 1, 1), dtype=np.int64),
    }[grouping]
    num_ctx = {
        "channel_layer": layers * channels,
        "layer": layers,
        "channel": channels,
        "token": tokens,
        "global": 1,
    }[grouping]
    return np.broadcast_to(grid, shape), num_ctx


def dense_histogram(symbols: np.ndarray, grouping) -> np.ndarray:
    """(context, symbol) counts of ``symbols`` over the whole alphabet."""
    ctx, num_ctx = dense_context_ids(symbols.shape, grouping)
    flat = ctx.astype(np.int64).ravel() * ALPHABET_SIZE + (
        symbols.ravel().astype(np.int64) + SYMBOL_OFFSET
    )
    return np.bincount(flat, minlength=num_ctx * ALPHABET_SIZE).reshape(num_ctx, ALPHABET_SIZE)


@dataclass
class DenseFit:
    """The fit the banded model replaced: every table ``(num_contexts, 511)``."""

    grouping: str
    counts: np.ndarray

    @classmethod
    def fit(cls, tensors, grouping, smoothing=0.1) -> "DenseFit":
        return cls(grouping, sum(dense_histogram(t, grouping) for t in tensors) + smoothing)

    def probabilities(self) -> np.ndarray:
        return self.counts / self.counts.sum(axis=1, keepdims=True)

    def log2_probabilities(self) -> np.ndarray:
        return np.log2(self.probabilities())

    def cumulative_counts(self, quantize_total: int = 1 << 16) -> np.ndarray:
        freqs = np.rint(self.probabilities() * (quantize_total - ALPHABET_SIZE)) + 1.0
        cum = np.zeros((len(freqs), ALPHABET_SIZE + 1), dtype=np.int32)
        cum[:, 1:] = np.cumsum(freqs.astype(np.int32), axis=1)
        return cum


def dense_log2_probabilities(model) -> np.ndarray:
    """``log2 p`` over the whole table: a dense reference's own, or the
    logarithm of a banded model's dense expansion."""
    if hasattr(model, "log2_probabilities"):
        return model.log2_probabilities()
    return np.log2(model.probabilities())


def dense_products(model, symbols: np.ndarray) -> np.ndarray:
    """``data_counts * log2 p`` over the whole ``(num_contexts, 511)`` table."""
    counts = dense_histogram(symbols, model.grouping)
    return counts.astype(np.float64) * dense_log2_probabilities(model)


def fold_sum(table: np.ndarray) -> float:
    """The order a score is summed in: fold the rows pairwise (an odd last row
    onto the row below the half), then add the last row's columns left to right."""
    rows = np.array(table, dtype=np.float64)
    while len(rows) > 1:
        half = len(rows) // 2
        folded = rows[:half] + rows[half : 2 * half]
        if len(rows) % 2:
            folded[-1] = folded[-1] + rows[-1]
        rows = folded
    total, *rest = rows[0].tolist()
    for value in rest:
        total += value
    return total


def dense_cross_entropy_bits(model, symbols: np.ndarray) -> float:
    """The defining formula: histogram and multiply the whole table, then fold
    it; 0.0 for a table with no contexts."""
    products = dense_products(model, symbols)
    return -fold_sum(products) if len(products) else 0.0


def pairwise_dense_bits(model, symbols: np.ndarray) -> float:
    """The formula scores were defined by before the fold: numpy's pairwise sum."""
    return float(-dense_products(model, symbols).sum())


def assert_scores_dense(model, symbols: np.ndarray, dense=None) -> None:
    """``model``'s score of ``symbols`` is the dense fold of ``dense`` (default:
    the model's own tables), and within 1e-12 of their pairwise sum."""
    dense = model if dense is None else dense
    bits = model.cross_entropy_bits(symbols)
    assert bits == dense_cross_entropy_bits(dense, symbols)
    pairwise = pairwise_dense_bits(dense, symbols)
    assert abs(bits - pairwise) <= 1e-12 * abs(pairwise)


def random_symbols(rng, shape, lo, hi, dtype=np.int32):
    return rng.integers(lo, hi + 1, size=shape).astype(dtype)


def fitted_model(rng, shape, grouping) -> SymbolProbabilityModel:
    # Fit on at least one token so every grouping has a context to score against.
    fit_shape = (shape[0], max(shape[1], 1), shape[2])
    return SymbolProbabilityModel.fit(
        [random_symbols(rng, fit_shape, -255, 255), random_symbols(rng, fit_shape, -9, 9)],
        grouping=grouping,
    )


class TestCrossEntropyEqualsDenseFormula:
    @pytest.mark.parametrize("grouping", GROUPINGS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_ranges_and_dtypes(self, grouping, shape):
        if grouping == "token" and shape[1] == 0:
            pytest.skip("a token-grouped model of an empty tensor has no contexts")
        rng = np.random.default_rng(10 * GROUPINGS.index(grouping) + SHAPES.index(shape))
        model = fitted_model(rng, shape, grouping)
        for lo, hi in RANGES:
            dtypes = [np.int16, np.int32, np.int64]
            if np.iinfo(np.int8).min <= lo and hi <= np.iinfo(np.int8).max:
                dtypes.insert(0, np.int8)  # how estimated payloads carry such a range
            for dtype in dtypes:
                assert_scores_dense(model, random_symbols(rng, shape, lo, hi, dtype))

    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_non_contiguous_view(self, grouping):
        rng = np.random.default_rng(7)
        shape = (6, 20, 8)
        model = fitted_model(rng, shape, grouping)
        # Token-major memory, as the boolean token mask of the delta step leaves it.
        symbols = random_symbols(rng, (20, 6, 8), -30, 30).transpose(1, 0, 2)
        assert not symbols.flags.c_contiguous
        assert_scores_dense(model, symbols)
        assert_scores_dense(model, random_symbols(rng, (6, 40, 8), -30, 30)[:, ::2, :])

    def test_fit_counts_equal_dense_histogram(self):
        rng = np.random.default_rng(11)
        tensors = [random_symbols(rng, (4, 9, 5), -255, 255), random_symbols(rng, (4, 3, 5), -2, 2)]
        for grouping in ("channel_layer", "layer", "channel", "global"):
            model = SymbolProbabilityModel.fit(tensors, grouping=grouping, smoothing=0.5)
            expected = np.zeros_like(model.counts)
            for tensor in tensors:
                ctx, _ = dense_context_ids(tensor.shape, grouping)
                np.add.at(expected, (ctx.ravel(), tensor.ravel() + SYMBOL_OFFSET), 1.0)
            np.testing.assert_array_equal(model.counts, expected + 0.5)

    def test_empty_tensor_scores_zero_bits(self):
        model = fitted_model(np.random.default_rng(3), (2, 4, 2), "channel_layer")
        bits = model.cross_entropy_bits(np.zeros((2, 0, 2), dtype=np.int32))
        assert bits == 0.0 and not np.signbit(bits)


def assert_tables_equal(model: SymbolProbabilityModel, dense: DenseFit) -> None:
    assert np.array_equal(model.counts, dense.counts)
    assert np.array_equal(np.log2(model.probabilities()), dense.log2_probabilities())
    assert np.array_equal(model.cumulative_counts(), dense.cumulative_counts())


#: Data ranges against a model fitted on -9..9: inside, straddling either edge,
#: wholly above or below, and the whole alphabet around it.
SCORED_RANGES = ((-9, 9), (3, 3), (-20, 0), (5, 30), (100, 140), (-255, -10), (-255, 255))


class TestBandedEqualsDenseFit:
    @pytest.mark.parametrize("grouping", GROUPINGS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_tables(self, grouping, shape):
        rng = np.random.default_rng(100 + 10 * GROUPINGS.index(grouping) + SHAPES.index(shape))
        fit_shape = (shape[0], max(shape[1], 1), shape[2])
        for lo, hi in RANGES:
            # A narrower int8 tensor beside the wide one, as the encoder fits them.
            tensors = [
                random_symbols(rng, fit_shape, lo, hi),
                random_symbols(rng, fit_shape, lo // 2, hi // 2, np.int8),
            ]
            model = SymbolProbabilityModel.fit(tensors, grouping=grouping)
            spanned = min(t.min() for t in tensors), max(t.max() for t in tensors)
            assert (model.lo, model.lo + model.band.shape[1] - 1) == spanned
            assert_tables_equal(model, DenseFit.fit(tensors, grouping))

    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_scores_outside_the_band(self, grouping):
        rng = np.random.default_rng(20 + GROUPINGS.index(grouping))
        shape = (4, 12, 6)
        fitted = random_symbols(rng, shape, -9, 9)
        fitted[0, 0, :2] = -9, 9
        model = SymbolProbabilityModel.fit(fitted, grouping=grouping)
        dense = DenseFit.fit([fitted], grouping)
        assert (model.lo, model.band.shape[1]) == (-9, 19)
        for lo, hi in SCORED_RANGES:
            assert_scores_dense(model, random_symbols(rng, shape, lo, hi, np.int16), dense)

    def test_model_of_no_symbols_is_all_smoothing(self):
        """Fitted on empty tensors, the band is empty and every symbol lies outside it."""
        empty = np.zeros((2, 0, 3), dtype=np.int8)
        model = SymbolProbabilityModel.fit([empty, empty], smoothing=0.5)
        dense = DenseFit.fit([empty, empty], "channel_layer", smoothing=0.5)
        assert model.band.shape == (6, 0)
        assert_tables_equal(model, dense)
        symbols = random_symbols(np.random.default_rng(4), (2, 7, 3), -255, 255)
        assert_scores_dense(model, symbols, dense)

    def test_default_profile_holds_its_band_only(self, llm):
        """Six models of ``(1024, 511)`` dense counts and log-probabilities were
        47.9 MiB; banded, as integer counts with every level scored, they are
        5.8 MiB."""
        codec = profile_codec("mistral-7b")
        encode_all_levels(
            CacheGenEncoder(CacheGenConfig(), codec=codec), llm.calculate_kv("banded-profile", 64)
        )
        models = {
            id(model): model
            for level in codec.level_models.values()
            for model in (level.delta_model, level.anchor_model)
        }
        assert len(models) == 6
        assert all(model._log_band is not None for model in models.values())
        held = sum(
            array.nbytes
            for model in models.values()
            for array in vars(model).values()
            if isinstance(array, np.ndarray)
        )
        assert held <= 12 * 2**20


#: ``(first symbol, width)``: bands at either edge of the alphabet, one
#: column wide, and all 511.
EDGE_BANDS = (
    (-SYMBOL_OFFSET, 1),
    (-SYMBOL_OFFSET, 40),
    (SYMBOL_OFFSET, 1),
    (SYMBOL_OFFSET - 39, 40),
    (0, 1),
    (-SYMBOL_OFFSET, ALPHABET_SIZE),
)
ANY_BAND = st.integers(-SYMBOL_OFFSET, SYMBOL_OFFSET).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(1, SYMBOL_OFFSET + 1 - lo))
)


@given(
    seed=st.integers(0, 2**32 - 1),
    grouping=st.sampled_from(GROUPINGS),
    band=st.one_of(st.sampled_from(EDGE_BANDS), ANY_BAND),
    skewed=st.booleans(),
    quantize_total=st.one_of(
        st.sampled_from([2 * ALPHABET_SIZE, MAX_QUANTIZE_TOTAL]),
        st.integers(2 * ALPHABET_SIZE, MAX_QUANTIZE_TOTAL),
    ),
)
def test_cumulative_counts_equal_the_dense_derivation(seed, grouping, band, skewed, quantize_total):
    """The band-only derivation against the dense one, ``==``, at any admissible total."""
    rng = np.random.default_rng(seed)
    lo, width = band
    shape = (2, int(rng.integers(1, 12)), 3)
    if skewed:  # most of the mass on the band's first symbols
        symbols = lo + np.minimum(rng.geometric(0.3, size=shape) - 1, width - 1)
    else:
        symbols = rng.integers(lo, lo + width, size=shape)
    symbols.flat[:2] = lo, lo + width - 1
    model = SymbolProbabilityModel.fit(symbols, grouping=grouping)
    assert (model.lo, model.band.shape[1]) == band
    dense = DenseFit.fit([symbols], grouping)
    assert np.array_equal(
        model.cumulative_counts(quantize_total), dense.cumulative_counts(quantize_total)
    )


class TestScoresAreStateless:
    def test_order_of_calls_does_not_matter(self):
        rng = np.random.default_rng(5)
        shape = (8, 30, 8)
        model = fitted_model(rng, shape, "channel_layer")
        narrow = random_symbols(rng, shape, -3, 3)
        wide = random_symbols(rng, shape, -255, 255)
        one_sided = random_symbols(rng, shape, 100, 140)
        for order in ((narrow, wide, one_sided), (one_sided, wide, narrow), (wide, narrow, wide)):
            for symbols in order:
                assert_scores_dense(model, symbols)

    def test_unchanged_after_rejected_input(self):
        rng = np.random.default_rng(6)
        shape = (4, 10, 4)
        model = fitted_model(rng, shape, "channel_layer")
        symbols = random_symbols(rng, shape, -50, 50)
        expected = model.cross_entropy_bits(symbols)
        out_of_range = symbols.copy()
        out_of_range[0, 0, 0] = 256
        with pytest.raises(ValueError, match=r"symbols must lie in \[-255, 255\]"):
            model.cross_entropy_bits(out_of_range)
        with pytest.raises(ValueError, match="symbols must be 3-D"):
            model.cross_entropy_bits(symbols[0])
        with pytest.raises(ValueError, match="induces 20 contexts but model has 16"):
            model.cross_entropy_bits(random_symbols(rng, (5, 10, 4), -50, 50))
        assert model.cross_entropy_bits(symbols) == expected
        assert_scores_dense(model, symbols)


class TestFoldEdges:
    """The fold's edge cases: one context, odd context counts, one column."""

    @pytest.mark.parametrize(
        "grouping, shape",
        [
            ("global", (3, 7, 5)),  # one context: nothing to fold
            ("layer", (3, 7, 5)),  # 3: the odd row joins the row below the half
            ("channel", (3, 7, 7)),  # 7: odd at two levels of the fold
            ("channel_layer", (3, 7, 5)),  # 15: odd at every level
            ("token", (2, 1, 3)),  # one token, one context
        ],
    )
    @pytest.mark.parametrize("symbol_range", [(4, 4), (-255, -255), (-2, 3), (-255, 255)])
    def test_scores(self, grouping, shape, symbol_range):
        rng = np.random.default_rng(30 + GROUPINGS.index(grouping))
        model = fitted_model(rng, shape, grouping)
        assert_scores_dense(model, random_symbols(rng, shape, *symbol_range))

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 6, 7, 13, 64])
    @pytest.mark.parametrize("width", [1, 2, 9])
    def test_order(self, rows, width):
        """Values of mixed magnitude, where every order sums differently."""
        rng = np.random.default_rng(rows * 10 + width)
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-8, 9, (rows, width))
        assert _fold_sum(table.copy()) == fold_sum(table)

    def test_zero_columns_change_nothing(self):
        rng = np.random.default_rng(8)
        band = -rng.random((13, 5))
        padded = np.zeros((13, 40))
        padded[:, 17:22] = band
        assert _fold_sum(padded) == _fold_sum(band.copy()) == fold_sum(band)


def test_scoring_holds_the_log_tables_alone(llm, monkeypatch):
    """A freshly loaded profile scores every level of a 1,500-token chunk: what
    stays allocated is the log-probability tables the first scores build, and
    each call's peak is its int64 counts and either one block of products
    columns or one block of layers' flat bin index and counts, never the whole
    symbols' index nor a products table wider than the block."""
    monkeypatch.setattr(repro.serving.engine, "_PROFILES", {})
    encoder = CacheGenEncoder(CacheGenConfig(), codec=profile_codec("mistral-7b"))
    kv = llm.calculate_kv("scoring-residency", 1500)
    payloads = []
    for level in encoder.config.levels:
        models = encoder.model_for_level(level)
        for delta, anchor in encoder.quantize(kv, level):
            payloads += [(models.delta_model, delta.symbols), (models.anchor_model, anchor.symbols)]
    models = list({id(model): model for model, _ in payloads}.values())
    assert len(models) == 6 and all(model._log_band is None for model in models)

    def log_table_bytes():
        return sum(
            model._log_band.nbytes + model._log_outside.nbytes
            for model in models
            if model._log_band is not None
        )

    blocked = []
    gc.collect()
    tracemalloc.start()
    try:
        for model, symbols in payloads:
            held, built = tracemalloc.get_traced_memory()[0], log_table_bytes()
            tracemalloc.reset_peak()
            model.cross_entropy_bits(symbols)
            peak = tracemalloc.get_traced_memory()[1] - held
            width = int(symbols.max()) - int(symbols.min()) + 1
            counts = model.num_contexts * width * 8
            products = model.num_contexts * min(width, _SCORE_BLOCK_COLUMNS) * 8
            # A block's flat bin index and the counts of the contexts it spans.
            block = layer_blocks(len(symbols), symbols[:1].size)[0]
            index = symbols[block].size * 8
            block_counts = counts * (block.stop - block.start) // len(symbols)
            blocked.append(index < symbols.size * 8)
            call = counts + max(index + block_counts, products) + (log_table_bytes() - built)
            assert peak <= call + 256 * 2**10
        del model, symbols
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= log_table_bytes() + 64 * 2**10
    assert all(blocked)  # every payload, anchors too, was counted in blocks


def assert_streams_equal(left, right):
    for a, b in (
        (left.delta_payload, right.delta_payload),
        (left.anchor_payload, right.anchor_payload),
    ):
        assert (a is None) == (b is None)
        if a is None:
            continue
        assert (a.bits, a.shape, a.exact, a.data) == (b.bits, b.shape, b.exact, b.data)
    np.testing.assert_array_equal(left.delta_scale, right.delta_scale)
    np.testing.assert_array_equal(left.delta_bins, right.delta_bins)
    assert left.anchor_bits == right.anchor_bits
    assert (left.anchor_scale is None) == (right.anchor_scale is None)
    if left.anchor_scale is not None:
        np.testing.assert_array_equal(left.anchor_scale, right.anchor_scale)


def assert_encodings_equal(left, right):
    for name in (
        "model_name", "level", "num_tokens", "group_size", "sim_shape", "scale_factor",
        "full_layers", "full_channels", "payload_bits", "sim_metadata_bytes", "compressed_bytes",
    ):
        assert getattr(left, name) == getattr(right, name), name
    assert left.source is right.source
    assert_streams_equal(left.k_stream, right.k_stream)
    assert_streams_equal(left.v_stream, right.v_stream)


MIXED_ANCHOR_LEVELS = (
    EncodingLevel("a", delta_bins=(0.3, 0.6), anchor_bits=8),
    EncodingLevel("b", delta_bins=(1.0,), anchor_bits=5),
    EncodingLevel("c", delta_bins=(2.0, 3.0, 4.0), anchor_bits=8),
)

ABLATIONS = {
    "default": {},
    "no-delta": {"use_delta": False},
    "no-layerwise": {"use_layerwise_quant": False},
    "no-arithmetic-coding": {"use_arithmetic_coding": False},
    "global-grouping": {"probability_grouping": "global"},
    "mixed-anchor-bits": {"levels": MIXED_ANCHOR_LEVELS},
}


class TestAllLevelsEqualsOneLevelAtATime:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_field_for_field(self, llm, sample_caches, ablation):
        encoder = CacheGenEncoder(CacheGenConfig(**ABLATIONS[ablation])).fit(sample_caches)
        for num_tokens in (128, 12, 1):
            kv = llm.calculate_kv(f"fast-path-{num_tokens}", num_tokens)
            together = encode_all_levels(encoder, kv)
            assert list(together) == [level.name for level in encoder.config.levels]
            for name, encoded in together.items():
                assert_encodings_equal(encoded, encoder.encode(kv, name))
            # The symbols a shared preparation gives each level are the ones
            # an estimated encoding's decode quantizes afresh.
            prepared = _PreparedKV(kv)
            for level in encoder.config.levels:
                shared, fresh = encoder.quantize(prepared, level), encoder.quantize(kv, level)
                for (delta, anchor), (want_delta, want_anchor) in zip(shared, fresh):
                    np.testing.assert_array_equal(delta.symbols, want_delta.symbols)
                    assert (anchor is None) == (want_anchor is None)
                    if anchor is not None:
                        np.testing.assert_array_equal(anchor.symbols, want_anchor.symbols)

    def test_exact_bitstreams_are_byte_equal(self, llm):
        samples = [llm.calculate_kv(f"tiny-profile-{i}", 24) for i in range(2)]
        encoder = CacheGenEncoder(CacheGenConfig(exact_entropy_coding=True)).fit(samples)
        kv = llm.calculate_kv("tiny", 11)
        for name, encoded in encode_all_levels(encoder, kv).items():
            alone = encoder.encode(kv, name)
            assert encoded.source is None
            assert encoded.k_stream.delta_payload.data == alone.k_stream.delta_payload.data
            assert encoded.v_stream.anchor_payload.data == alone.v_stream.anchor_payload.data
            assert_encodings_equal(encoded, alone)


class TestAnchorModelSharing:
    def test_default_levels_share_the_eight_bit_model(self, encoder):
        models = encoder.codec.level_models
        assert models["high"].anchor_model is models["medium"].anchor_model
        assert models["low"].anchor_model is models["medium"].anchor_model
        assert models["lowest"].anchor_model is not models["medium"].anchor_model

    def test_payload_reuse_follows_the_model(self, llm, sample_caches):
        encoder = CacheGenEncoder(CacheGenConfig(levels=MIXED_ANCHOR_LEVELS)).fit(sample_caches)
        models = encoder.codec.level_models
        assert models["a"].anchor_model is models["c"].anchor_model
        assert models["b"].anchor_model is not models["a"].anchor_model
        kv = llm.calculate_kv("mixed-anchor-bits", 64)
        encodings = encode_all_levels(encoder, kv)
        payload = {name: e.k_stream.anchor_payload for name, e in encodings.items()}
        assert payload["a"] is payload["c"]
        assert payload["b"] is not payload["a"]
        anchors = {name: np.abs(encoder.quantize(kv, name)[0][1].symbols) for name in "ab"}
        assert anchors["b"].max() <= 15 < anchors["a"].max()


class TestOneTokenChunk:
    """A chunk of one token is all anchor: its delta tensor is empty."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("ablation", ["default", "no-arithmetic-coding"])
    def test_encode_decode_round_trip(self, llm, sample_caches, ablation):
        encoder = CacheGenEncoder(CacheGenConfig(**ABLATIONS[ablation])).fit(sample_caches)
        decoder = CacheGenDecoder(encoder)
        kv = llm.calculate_kv("one-token", 1)
        for level in encoder.config.levels:
            encoded = encoder.encode(kv, level)
            for stream in (encoded.k_stream, encoded.v_stream):
                assert stream.delta_payload.bits == 0.0
                assert stream.delta_payload.shape == (kv.num_layers, 0, kv.num_channels)
                bins = np.float32(stream.delta_bins)[:, None]
                np.testing.assert_array_equal(stream.delta_scale, bins)  # std guarded to 1.0
            decoded = decoder.decode(encoded)
            assert decoded.shape == kv.shape
            # Only the anchor quantization error remains.
            step = np.abs(kv.k).max() / (2 ** (level.anchor_bits - 1) - 1)
            assert np.abs(decoded.k - kv.k).max() <= step

    def test_exact_coder_round_trips_an_empty_delta_stream(self, llm):
        samples = [llm.calculate_kv(f"tiny-profile-{i}", 24) for i in range(2)]
        encoder = CacheGenEncoder(CacheGenConfig(exact_entropy_coding=True)).fit(samples)
        kv = llm.calculate_kv("one-token", 1)
        encoded = encoder.encode(kv, "medium")
        assert encoded.k_stream.delta_payload.exact
        decoded = CacheGenDecoder(encoder).decode(encoded)
        estimated = CacheGenEncoder(CacheGenConfig()).fit(samples)
        np.testing.assert_array_equal(
            decoded.k, CacheGenDecoder(estimated).decode(estimated.encode(kv, "medium")).k
        )

    def test_prepare_chunks_with_a_one_token_tail(self, llm, sample_caches):
        encoder = CacheGenEncoder(CacheGenConfig(chunk_tokens=128)).fit(sample_caches)
        chunks = prepare_chunks(llm.calculate_kv("tail-of-one", 257), encoder)
        assert [chunk.num_tokens for chunk in chunks] == [128, 128, 1]
        assert all(encoded.payload_bits > 0 for encoded in chunks[-1].encodings.values())

    def test_serve_a_context_with_a_one_token_tail(self):
        report = serve(
            ServingSpec(chunk_tokens=128),
            [ServeRequest(context_id="tail-of-one", question="q?", num_tokens=257)],
        )
        assert len(report.responses) == 1
