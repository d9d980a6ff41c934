"""Tests for vectorwise and bin quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantization import (
    SYMBOL_CLIP,
    SYMBOL_DTYPE,
    bin_quantize,
    layer_bin_sizes,
    vectorwise_quantize,
)


class TestVectorwise:
    @pytest.mark.parametrize("bits", [2, 3, 4, 8, 16])
    def test_symbols_within_range(self, rng, bits):
        tensor = rng.normal(size=(3, 50, 6)).astype(np.float32)
        quantized = vectorwise_quantize(tensor, bits)
        limit = 2 ** (bits - 1) - 1
        assert quantized.symbols.max() <= limit
        assert quantized.symbols.min() >= -limit

    def test_sixteen_bit_symbols_fit_the_symbol_dtype(self, rng):
        tensor = rng.normal(size=(2, 50, 3)).astype(np.float32)
        quantized = vectorwise_quantize(tensor, 16)
        assert quantized.symbols.dtype == SYMBOL_DTYPE
        assert np.abs(quantized.symbols).max() == 2**15 - 1

    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_error_bounded_by_half_step(self, rng, bits):
        tensor = rng.normal(size=(2, 80, 5)).astype(np.float32)
        quantized = vectorwise_quantize(tensor, bits)
        recovered = quantized.dequantize()
        step = quantized.scale[:, None, :]
        assert np.all(np.abs(recovered - tensor) <= step / 2 + 1e-6)

    def test_more_bits_less_error(self, rng):
        tensor = rng.normal(size=(2, 100, 8)).astype(np.float32)
        errors = []
        for bits in (3, 4, 8):
            recovered = vectorwise_quantize(tensor, bits).dequantize()
            errors.append(float(np.mean((recovered - tensor) ** 2)))
        assert errors[0] > errors[1] > errors[2]

    def test_8bit_nearly_lossless(self, kv):
        quantized = vectorwise_quantize(kv.k, 8)
        relative_mse = np.mean((quantized.dequantize() - kv.k) ** 2) / np.var(kv.k)
        assert relative_mse < 5e-4

    def test_zero_channel_handled(self):
        tensor = np.zeros((1, 10, 3), dtype=np.float32)
        quantized = vectorwise_quantize(tensor, 8)
        np.testing.assert_array_equal(quantized.symbols, 0)
        np.testing.assert_array_equal(quantized.dequantize(), 0.0)

    @pytest.mark.parametrize("bits", [0, 1, 17])
    def test_invalid_bits(self, bits):
        with pytest.raises(ValueError):
            vectorwise_quantize(np.zeros((1, 2, 3)), bits)


class TestLayerBins:
    def test_three_equal_groups(self):
        bins = layer_bin_sizes(6, (0.5, 1.0, 1.5))
        np.testing.assert_allclose(bins, [0.5, 0.5, 1.0, 1.0, 1.5, 1.5])

    def test_uneven_split(self):
        bins = layer_bin_sizes(4, (0.5, 1.0, 1.5))
        assert bins[0] == 0.5 and bins[-1] == 1.5
        assert len(bins) == 4

    def test_single_group(self):
        np.testing.assert_allclose(layer_bin_sizes(5, (2.0,)), 2.0)

    def test_monotone_with_depth(self):
        bins = layer_bin_sizes(32, (0.5, 1.0, 1.5))
        assert np.all(np.diff(bins) >= 0)

    @pytest.mark.parametrize("layers,bins", [(0, (1.0,)), (4, ()), (4, (0.0, 1.0))])
    def test_invalid(self, layers, bins):
        with pytest.raises(ValueError):
            layer_bin_sizes(layers, bins)


class TestBinQuantize:
    def test_error_bounded_by_half_bin(self, rng):
        tensor = rng.normal(size=(3, 60, 5)).astype(np.float32)
        bins = layer_bin_sizes(3, (0.5, 1.0, 1.5))
        quantized = bin_quantize(tensor, bins)
        recovered = quantized.dequantize()
        per_layer_step = quantized.scale[:, 0]
        for layer in range(3):
            assert np.max(np.abs(recovered[layer] - tensor[layer])) <= per_layer_step[layer] / 2 + 1e-6

    def test_larger_bins_more_error(self, rng):
        tensor = rng.normal(size=(2, 80, 6)).astype(np.float32)
        small = bin_quantize(tensor, np.full(2, 0.5)).dequantize()
        large = bin_quantize(tensor, np.full(2, 2.0)).dequantize()
        assert np.mean((large - tensor) ** 2) > np.mean((small - tensor) ** 2)

    def test_scale_is_per_layer(self, rng):
        tensor = rng.normal(size=(3, 40, 6)).astype(np.float32)
        quantized = bin_quantize(tensor, np.full(3, 1.0))
        assert quantized.scale.shape == (3, 1)

    def test_symbols_clipped(self, rng):
        tensor = (rng.normal(size=(1, 50, 4)) * 1e6).astype(np.float32)
        tensor[0, 0, 0] = 1e9
        quantized = bin_quantize(tensor, np.full(1, 0.001))
        assert quantized.symbols.max() <= SYMBOL_CLIP

    def test_symbols_clip_before_the_cast(self):
        """Values far past the int16 range saturate at the clip; none wraps."""
        tensor = np.array([[[1e9], [-1e9], [40_000.0], [-40_000.0], [3.0]]], dtype=np.float32)
        quantized = bin_quantize(tensor, np.full(1, 1.0), std=np.ones((1, 1)))
        assert quantized.symbols.dtype == SYMBOL_DTYPE
        assert quantized.symbols.ravel().tolist() == [255, -255, 255, -255, 3]

    def test_reference_tensor_sets_scale(self, rng):
        tensor = rng.normal(size=(2, 30, 4)).astype(np.float32)
        reference = tensor * 3
        with_ref = bin_quantize(tensor, np.full(2, 1.0), reference=reference)
        without_ref = bin_quantize(tensor, np.full(2, 1.0))
        assert np.all(with_ref.scale > without_ref.scale)

    def test_wrong_bin_shape_rejected(self, rng):
        tensor = rng.normal(size=(3, 10, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            bin_quantize(tensor, np.full(2, 1.0))

    def test_scalar_bin_accepted(self, rng):
        tensor = rng.normal(size=(3, 10, 4)).astype(np.float32)
        quantized = bin_quantize(tensor, 1.0)
        assert quantized.symbols.shape == tensor.shape


@settings(max_examples=25, deadline=None)
@given(bits=st.integers(3, 10), seed=st.integers(0, 1000))
def test_vectorwise_error_bound_property(bits, seed):
    """Quantization error never exceeds half the per-channel step size."""
    rng = np.random.default_rng(seed)
    tensor = (rng.normal(size=(2, 30, 4)) * rng.uniform(0.1, 10)).astype(np.float32)
    quantized = vectorwise_quantize(tensor, bits)
    recovered = quantized.dequantize()
    assert np.all(np.abs(recovered - tensor) <= quantized.scale[:, None, :] / 2 + 1e-5)
