"""Tests for the CacheGen encoder/decoder pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, EncodingLevel


class TestFitAndValidation:
    def test_requires_fit_before_encode(self, kv, small_config):
        encoder = CacheGenEncoder(small_config)
        with pytest.raises(RuntimeError):
            encoder.encode(kv)

    def test_fit_requires_samples(self, small_config):
        with pytest.raises(ValueError):
            CacheGenEncoder(small_config).fit([])

    def test_fit_creates_models_per_level(self, encoder):
        assert set(encoder.level_models) == {level.name for level in encoder.config.levels}

    def test_is_fitted(self, encoder, small_config):
        assert encoder.is_fitted
        assert not CacheGenEncoder(small_config).is_fitted

    def test_widest_anchor_bits_fit_and_round_trip(self, sample_caches):
        """9-bit anchors reach ±255, the edge of the alphabet, and no further."""
        level = EncodingLevel("nine", delta_bins=(0.5, 1.0, 1.5), anchor_bits=9)
        config = CacheGenConfig(levels=(level,), default_level_index=0)
        encoder = CacheGenEncoder(config).fit(
            [c.slice_tokens(0, 40) for c in sample_caches]
        )
        chunk = sample_caches[0].slice_tokens(40, 80)
        encoded = encoder.encode(chunk)
        assert np.abs(encoded.k_stream.anchor_payload.symbols.astype(int)).max() == 255
        decoded = CacheGenDecoder(encoder).decode(encoded)
        assert float(chunk.normalized_distortion_per_layer(decoded).mean()) < 0.1


class TestEncode:
    def test_encoded_metadata(self, encoder, kv):
        encoded = encoder.encode(kv)
        assert encoded.model_name == kv.model_name
        assert encoded.num_tokens == kv.num_tokens
        assert encoded.sim_shape == kv.shape
        assert encoded.level.name == encoder.config.default_level.name

    def test_compressed_smaller_than_8bit(self, encoder, kv):
        """CacheGen's default level beats 8-bit quantization by a wide margin."""
        encoded = encoder.encode(kv)
        eight_bit_bytes = kv.full_num_elements * 1.0
        assert encoded.compressed_bytes < eight_bit_bytes / 2

    def test_bits_per_element_reasonable(self, encoder, kv):
        encoded = encoder.encode(kv)
        assert 0.5 < encoded.bits_per_element < 6.0

    @pytest.mark.parametrize("level", ["high", "medium", "low", "lowest"])
    def test_encode_named_levels(self, encoder, kv, level):
        encoded = encoder.encode(kv, level)
        assert encoded.level.name == level

    def test_levels_ordered_by_size(self, encoder, kv):
        sizes = [encoder.encode(kv, level.name).compressed_bytes for level in encoder.config.levels]
        assert sizes == sorted(sizes, reverse=True)

    def test_encode_all_levels(self, encoder, kv):
        encodings = encoder.encode_all_levels(kv)
        assert set(encodings) == {level.name for level in encoder.config.levels}

    def test_scale_factor_extrapolation(self, encoder, kv):
        encoded = encoder.encode(kv)
        assert encoded.compressed_bytes == pytest.approx(
            encoded.sim_compressed_bytes * kv.scale_factor
        )


class TestDecode:
    def test_decoded_shape_and_metadata(self, encoder, decoder, kv):
        decoded = decoder.decode(encoder.encode(kv))
        assert decoded.shape == kv.shape
        assert decoded.model_name == kv.model_name
        assert decoded.full_layers == kv.full_layers

    def test_decode_error_small_at_default_level(self, encoder, decoder, kv):
        decoded = decoder.decode(encoder.encode(kv))
        distortion = kv.normalized_distortion_per_layer(decoded)
        assert float(distortion.mean()) < 0.1

    def test_higher_level_less_distortion(self, encoder, decoder, kv):
        distortions = []
        for level in ("high", "medium", "low", "lowest"):
            decoded = decoder.decode(encoder.encode(kv, level))
            distortions.append(float(kv.normalized_distortion_per_layer(decoded).mean()))
        assert distortions == sorted(distortions)

    def test_anchor_tokens_high_precision(self, encoder, decoder, kv):
        """Anchor tokens are kept at 8-bit precision, so their error is tiny."""
        decoded = decoder.decode(encoder.encode(kv, "lowest"))
        positions = np.arange(0, kv.num_tokens, encoder.config.group_size)
        anchor_err = np.abs(decoded.k[:, positions, :] - kv.k[:, positions, :]).mean()
        other = np.ones(kv.num_tokens, dtype=bool)
        other[positions] = False
        other_err = np.abs(decoded.k[:, other, :] - kv.k[:, other, :]).mean()
        assert anchor_err < other_err

    def test_decode_many_concatenates(self, encoder, decoder, kv):
        chunks = kv.split_tokens(200)
        encoded = [encoder.encode(chunk) for chunk in chunks]
        decoded = decoder.decode_many(encoded)
        assert decoded.num_tokens == kv.num_tokens

    def test_decode_many_empty_rejected(self, decoder):
        with pytest.raises(ValueError):
            decoder.decode_many([])


class TestAblationSwitches:
    @pytest.fixture(scope="class")
    def variants(self, sample_caches, kv):
        def build(**kwargs):
            config = CacheGenConfig(chunk_tokens=256, **kwargs)
            encoder = CacheGenEncoder(config).fit(sample_caches)
            encoded = encoder.encode(kv)
            decoded = CacheGenDecoder(encoder).decode(encoded)
            return encoded, float(kv.normalized_distortion_per_layer(decoded).mean())

        return {
            "full": build(),
            "no_ac": build(use_arithmetic_coding=False),
            "no_delta": build(use_delta=False),
            "global_probs": build(probability_grouping="global"),
            "no_layerwise": build(use_layerwise_quant=False),
        }

    def test_arithmetic_coding_reduces_size(self, variants):
        assert variants["full"][0].compressed_bytes < variants["no_ac"][0].compressed_bytes

    def test_fixed_width_of_int8_symbols_counts_minus_128(self):
        """Without arithmetic coding a symbol costs the bits of the widest one;
        an int8 -128 needs 9 (``np.abs`` would leave it at -128)."""
        encoder = CacheGenEncoder(CacheGenConfig(use_arithmetic_coding=False))
        symbols = np.array([-128, 5], dtype=np.int8).reshape(1, 2, 1)
        (payload,) = encoder._entropy_encode([(None, symbols, None)])
        assert payload.bits == 9 * symbols.size

    def test_grouped_probabilities_reduce_size(self, variants):
        assert variants["full"][0].compressed_bytes < variants["global_probs"][0].compressed_bytes

    def test_delta_improves_quality(self, variants):
        """At the same level, change-based encoding yields lower distortion."""
        assert variants["full"][1] < variants["no_delta"][1]

    def test_layerwise_quant_shifts_loss_to_deep_layers(self, sample_caches, kv):
        config = CacheGenConfig(chunk_tokens=256)
        encoder = CacheGenEncoder(config).fit(sample_caches)
        decoded = CacheGenDecoder(encoder).decode(encoder.encode(kv))
        distortion = kv.normalized_distortion_per_layer(decoded)
        first_third = distortion[: kv.num_layers // 3].mean()
        last_third = distortion[-kv.num_layers // 3 :].mean()
        assert first_third < last_third


class TestExactBitstreams:
    def test_exact_roundtrip_small_cache(self, sample_caches):
        """With exact entropy coding the decoded cache matches the estimated path."""
        config = CacheGenConfig(chunk_tokens=64, exact_entropy_coding=True)
        encoder = CacheGenEncoder(config).fit([c.slice_tokens(0, 80) for c in sample_caches])
        decoder = CacheGenDecoder(encoder)
        small = sample_caches[0].slice_tokens(0, 60)
        encoded = encoder.encode(small)
        assert encoded.k_stream.delta_payload.exact
        decoded = decoder.decode(encoded)
        distortion = small.normalized_distortion_per_layer(decoded)
        assert float(distortion.mean()) < 0.1
