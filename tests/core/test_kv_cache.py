"""Tests for the KVCache data model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KVCache
from repro.core.kv_cache import squared_error_per_layer


def make_cache(layers=4, tokens=30, channels=8, full_layers=0, full_channels=0, seed=0):
    rng = np.random.default_rng(seed)
    return KVCache(
        k=rng.normal(size=(layers, tokens, channels)),
        v=rng.normal(size=(layers, tokens, channels)),
        model_name="test",
        full_layers=full_layers,
        full_channels=full_channels,
    )


class TestConstruction:
    def test_shape_properties(self):
        cache = make_cache(4, 30, 8)
        assert cache.num_layers == 4
        assert cache.num_tokens == 30
        assert cache.num_channels == 8
        assert cache.shape == (4, 30, 8)

    def test_dtype_is_float32(self):
        cache = make_cache()
        assert cache.k.dtype == np.float32
        assert cache.v.dtype == np.float32

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="identical shapes"):
            KVCache(k=rng.normal(size=(2, 10, 4)), v=rng.normal(size=(2, 11, 4)))

    def test_non_3d_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="3-D"):
            KVCache(k=rng.normal(size=(10, 4)), v=rng.normal(size=(10, 4)))

    def test_full_dims_default_to_sim_dims(self):
        cache = make_cache(4, 30, 8)
        assert cache.full_layers == 4
        assert cache.full_channels == 8

    def test_full_dims_respected(self):
        cache = make_cache(4, 30, 8, full_layers=32, full_channels=1024)
        assert cache.full_layers == 32
        assert cache.full_channels == 1024


class TestSizes:
    def test_num_elements_counts_k_and_v(self):
        cache = make_cache(4, 30, 8)
        assert cache.num_elements == 2 * 4 * 30 * 8

    def test_nbytes_is_fp16(self):
        cache = make_cache(4, 30, 8)
        assert cache.nbytes == cache.num_elements * 2

    def test_full_nbytes_scales_with_full_dims(self):
        cache = make_cache(4, 30, 8, full_layers=8, full_channels=16)
        assert cache.full_num_elements == 2 * 8 * 30 * 16
        assert cache.full_nbytes == cache.full_num_elements * 2

    def test_scale_factor(self):
        cache = make_cache(4, 30, 8, full_layers=8, full_channels=16)
        assert cache.scale_factor == pytest.approx(4.0)

    def test_mistral_size_matches_paper(self, llm):
        """Mistral-7B at ~9.4K tokens should be ~1.2 GB fp16 (8-bit ~622 MB)."""
        from repro.llm import MISTRAL_7B

        bytes_fp16 = MISTRAL_7B.kv_cache_bytes(9_400, 16)
        assert 1.1e9 < bytes_fp16 < 1.35e9


class TestSlicing:
    def test_slice_tokens_shape(self):
        cache = make_cache(4, 30, 8)
        part = cache.slice_tokens(5, 15)
        assert part.num_tokens == 10
        np.testing.assert_array_equal(part.k, cache.k[:, 5:15, :])

    def test_slice_preserves_metadata(self):
        cache = make_cache(4, 30, 8, full_layers=8, full_channels=16)
        part = cache.slice_tokens(0, 10)
        assert part.full_layers == 8
        assert part.full_channels == 16
        assert part.model_name == "test"

    def test_slice_out_of_range(self):
        cache = make_cache(4, 30, 8)
        with pytest.raises(IndexError):
            cache.slice_tokens(0, 31)
        with pytest.raises(IndexError):
            cache.slice_tokens(-1, 10)

    @pytest.mark.parametrize("chunk_tokens,expected_chunks", [(10, 3), (7, 5), (30, 1), (100, 1)])
    def test_split_tokens_chunk_counts(self, chunk_tokens, expected_chunks):
        cache = make_cache(4, 30, 8)
        chunks = cache.split_tokens(chunk_tokens)
        assert len(chunks) == expected_chunks
        assert sum(c.num_tokens for c in chunks) == 30

    def test_split_tokens_invalid(self):
        with pytest.raises(ValueError):
            make_cache().split_tokens(0)

    def test_split_then_concat_roundtrip(self):
        cache = make_cache(4, 30, 8)
        rebuilt = KVCache.concat(cache.split_tokens(7))
        np.testing.assert_array_equal(rebuilt.k, cache.k)
        np.testing.assert_array_equal(rebuilt.v, cache.v)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            KVCache.concat([])

    def test_concat_incompatible_rejected(self):
        with pytest.raises(ValueError):
            KVCache.concat([make_cache(4, 10, 8), make_cache(3, 10, 8)])

    def test_copy_is_independent(self):
        cache = make_cache()
        dup = cache.copy()
        dup.k[0, 0, 0] += 100
        assert cache.k[0, 0, 0] != dup.k[0, 0, 0]


class TestErrors:
    def test_distortion_zero_for_identical(self):
        cache = make_cache()
        np.testing.assert_array_equal(cache.normalized_distortion_per_layer(cache.copy()), 0.0)

    def test_distortion_positive_in_every_noisy_layer(self):
        cache = make_cache()
        noisy = cache.copy()
        noisy.k += 0.1
        distortion = cache.normalized_distortion_per_layer(noisy)
        assert distortion.shape == (cache.num_layers,)
        assert np.all(distortion > 0)

    def test_distortion_only_in_the_layer_that_changed(self):
        cache = make_cache()
        noisy = cache.copy()
        noisy.v[2] += 0.1
        distortion = cache.normalized_distortion_per_layer(noisy)
        assert distortion[2] > 0
        assert np.all(np.delete(distortion, 2) == 0)

    def test_distortion_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            make_cache(4, 30, 8).normalized_distortion_per_layer(make_cache(4, 20, 8))

    def test_distortion_is_mse_over_variance(self):
        """A constant offset ``c`` on K alone is an MSE of ``c**2 / 2`` over K and V."""
        cache = make_cache()
        noisy = cache.copy()
        noisy.k += 0.5
        expected = 0.25 / 2 / cache.variance_per_layer()
        np.testing.assert_allclose(cache.normalized_distortion_per_layer(noisy), expected, rtol=1e-5)

    def test_squared_error_per_layer_sums_all_but_the_layer_axis(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))
        np.testing.assert_allclose(
            squared_error_per_layer(a, b), ((a - b) ** 2).sum(axis=(1, 2))
        )

    def test_normalized_distortion_scale_invariant(self):
        cache = make_cache()
        noisy = cache.copy()
        noisy.k += 0.05 * cache.k.std()
        d1 = cache.normalized_distortion_per_layer(noisy)

        scaled = KVCache(cache.k * 10, cache.v * 10)
        noisy_scaled = KVCache(noisy.k * 10, noisy.v * 10)
        d2 = scaled.normalized_distortion_per_layer(noisy_scaled)
        np.testing.assert_allclose(d1, d2, rtol=1e-4)


@settings(max_examples=20, deadline=None)
@given(
    layers=st.integers(1, 6),
    tokens=st.integers(2, 40),
    channels=st.integers(1, 12),
    chunk=st.integers(1, 45),
)
def test_split_concat_property(layers, tokens, channels, chunk):
    """Splitting and concatenating along tokens is always the identity."""
    cache = make_cache(layers, tokens, channels, seed=layers * 1000 + tokens)
    rebuilt = KVCache.concat(cache.split_tokens(chunk))
    assert rebuilt.shape == cache.shape
    np.testing.assert_array_equal(rebuilt.k, cache.k)
