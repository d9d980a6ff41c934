"""Exactness oracles for the ingest fast path.

A model stores only the band of symbol values its fit saw,
``cross_entropy_bits`` counts and multiplies only the band of symbol values
present, and ``encode_all_levels`` prepares a cache once for every level.
All three must give *equal* results — not close ones — to the plain
formulations: the dense ``(num_contexts, 511)`` fit and scoring formula kept
here as the reference (:class:`DenseFit`, :func:`dense_cross_entropy_bits`),
and ``encode`` called once per level on the cache itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from repro import ServeRequest, ServingSpec, serve
from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, EncodingLevel
from repro.core.probability_model import ALPHABET_SIZE, SYMBOL_OFFSET, SymbolProbabilityModel
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


def dense_cross_entropy_bits(model, symbols: np.ndarray) -> float:
    """The formula the fast path replaced: histogram and multiply the whole table."""
    counts = dense_histogram(symbols, model.grouping)
    return float(-(counts.astype(np.float64) * model.log2_probabilities()).sum())


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
                symbols = random_symbols(rng, shape, lo, hi, dtype)
                assert model.cross_entropy_bits(symbols) == dense_cross_entropy_bits(model, symbols)

    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_non_contiguous_view(self, grouping):
        rng = np.random.default_rng(7)
        shape = (6, 20, 8)
        model = fitted_model(rng, shape, grouping)
        # Token-major memory, as the boolean token mask of the delta step leaves it.
        symbols = random_symbols(rng, (20, 6, 8), -30, 30).transpose(1, 0, 2)
        assert not symbols.flags.c_contiguous
        assert model.cross_entropy_bits(symbols) == dense_cross_entropy_bits(model, symbols)
        strided = random_symbols(rng, (6, 40, 8), -30, 30)[:, ::2, :]
        assert model.cross_entropy_bits(strided) == dense_cross_entropy_bits(model, strided)

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
    assert np.array_equal(model.log2_probabilities(), dense.log2_probabilities())
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
            symbols = random_symbols(rng, shape, lo, hi, np.int16)
            assert model.cross_entropy_bits(symbols) == dense_cross_entropy_bits(dense, symbols)
        assert not model.scratch.table((model.num_contexts, ALPHABET_SIZE)).any()

    def test_model_of_no_symbols_is_all_smoothing(self):
        """Fitted on empty tensors, the band is empty and every symbol lies outside it."""
        empty = np.zeros((2, 0, 3), dtype=np.int8)
        model = SymbolProbabilityModel.fit([empty, empty], smoothing=0.5)
        dense = DenseFit.fit([empty, empty], "channel_layer", smoothing=0.5)
        assert model.band.shape == (6, 0)
        assert_tables_equal(model, dense)
        symbols = random_symbols(np.random.default_rng(4), (2, 7, 3), -255, 255)
        assert model.cross_entropy_bits(symbols) == dense_cross_entropy_bits(dense, symbols)

    def test_default_profile_holds_its_band_only(self, llm):
        """Six models of ``(1024, 511)`` dense counts and log-probabilities were
        47.9 MiB; banded, with every level scored, they are 9.7 MiB."""
        codec = profile_codec("mistral-7b")
        CacheGenEncoder(CacheGenConfig(), codec=codec).encode_all_levels(
            llm.calculate_kv("banded-profile", 64)
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


class TestScratchIsLeftClean:
    def test_order_of_calls_does_not_matter(self):
        rng = np.random.default_rng(5)
        shape = (8, 30, 8)
        model = fitted_model(rng, shape, "channel_layer")
        narrow = random_symbols(rng, shape, -3, 3)
        wide = random_symbols(rng, shape, -255, 255)
        one_sided = random_symbols(rng, shape, 100, 140)
        expected = {id(s): dense_cross_entropy_bits(model, s) for s in (narrow, wide, one_sided)}
        for order in ((narrow, wide, one_sided), (one_sided, wide, narrow), (wide, narrow, wide)):
            for symbols in order:
                assert model.cross_entropy_bits(symbols) == expected[id(symbols)]
        assert not model.scratch.table(model.counts.shape).any()

    def test_clean_after_rejected_input(self):
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
        assert not model.scratch.table(model.counts.shape).any()
        assert model.cross_entropy_bits(symbols) == expected

    def test_encoder_models_share_one_scratch(self, encoder):
        models = [
            model
            for level_models in encoder.level_models.values()
            for model in (level_models.delta_model, level_models.anchor_model)
        ]
        assert all(model.scratch is models[0].scratch for model in models)
        assert not models[0].scratch.table(models[0].counts.shape).any()


def assert_streams_equal(left, right):
    for a, b in (
        (left.delta_payload, right.delta_payload),
        (left.anchor_payload, right.anchor_payload),
    ):
        assert (a is None) == (b is None)
        if a is None:
            continue
        assert (a.bits, a.shape, a.exact, a.data) == (b.bits, b.shape, b.exact, b.data)
        assert (a.symbols is None) == (b.symbols is None)
        if a.symbols is not None:
            assert a.symbols.dtype == b.symbols.dtype
            np.testing.assert_array_equal(a.symbols, b.symbols)
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
            together = encoder.encode_all_levels(kv)
            assert list(together) == [level.name for level in encoder.config.levels]
            for name, encoded in together.items():
                assert_encodings_equal(encoded, encoder.encode(kv, name))

    def test_exact_bitstreams_are_byte_equal(self, llm):
        samples = [llm.calculate_kv(f"tiny-profile-{i}", 24) for i in range(2)]
        encoder = CacheGenEncoder(CacheGenConfig(exact_entropy_coding=True)).fit(samples)
        kv = llm.calculate_kv("tiny", 11)
        for name, encoded in encoder.encode_all_levels(kv).items():
            alone = encoder.encode(kv, name)
            assert encoded.k_stream.delta_payload.data == alone.k_stream.delta_payload.data
            assert encoded.v_stream.anchor_payload.data == alone.v_stream.anchor_payload.data
            assert_encodings_equal(encoded, alone)


class TestAnchorModelSharing:
    def test_default_levels_share_the_eight_bit_model(self, encoder):
        models = encoder.level_models
        assert models["high"].anchor_model is models["medium"].anchor_model
        assert models["low"].anchor_model is models["medium"].anchor_model
        assert models["lowest"].anchor_model is not models["medium"].anchor_model

    def test_payload_reuse_follows_the_model(self, llm, sample_caches):
        encoder = CacheGenEncoder(CacheGenConfig(levels=MIXED_ANCHOR_LEVELS)).fit(sample_caches)
        models = encoder.level_models
        assert models["a"].anchor_model is models["c"].anchor_model
        assert models["b"].anchor_model is not models["a"].anchor_model
        encodings = encoder.encode_all_levels(llm.calculate_kv("mixed-anchor-bits", 64))
        payload = {name: e.k_stream.anchor_payload for name, e in encodings.items()}
        assert payload["a"] is payload["c"]
        assert payload["b"] is not payload["a"]
        assert np.abs(payload["b"].symbols).max() <= 15 < np.abs(payload["a"].symbols).max()


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
