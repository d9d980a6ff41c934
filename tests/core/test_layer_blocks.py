"""Every blocked pass of ingest equals its whole-tensor form, bit for bit.

Variance, squared error, quantization, symbol counts, scores and the
encoder's error statistics each work a :func:`~repro.core.kv_cache.layer_blocks`
block of layers (and a score a block of columns) at a time, so that ingest
holds its KV cache and one bounded working set.  A float reduction over a
block need not give the bits it gives over the whole tensor: numpy picks its
inner loops by the shape it is handed and by the CPU it runs on
(``einsum("tlc,tlc->l")`` over one-layer blocks sums in another order).  So
:func:`check_blockings` compares each pass, at several block sizes, with the
whole-tensor formula it replaced, and runs in a fresh interpreter with
numpy's AVX-512 kernels on and off (``NPY_DISABLE_CPU_FEATURES``).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.kv_cache import layer_blocks

#: numpy's own switch for its AVX-512 dispatch targets.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.parametrize("num_layers", [0, 1, 2, 3, 5, 7, 26, 32])
@pytest.mark.parametrize("layer_values", [1, 4096, 48_000, 1 << 18, 1 << 20])
def test_layer_blocks_cover_every_layer_and_leave_none_alone(num_layers, layer_values):
    blocks = layer_blocks(num_layers, layer_values)
    covered = [layer for block in blocks for layer in range(num_layers)[block]]
    assert covered == list(range(num_layers))
    sizes = [block.stop - block.start for block in blocks]
    assert len(sizes) >= 1
    if num_layers >= 2:
        assert min(sizes) >= 2


def whole_variance(kv):
    return (kv.k.var(axis=(1, 2), dtype=np.float64) + kv.v.var(axis=(1, 2), dtype=np.float64)) / 2.0


def whole_squared_error(a, b):
    diff = np.subtract(a, b, dtype=np.float64)
    diff *= diff
    return diff.reshape(diff.shape[0], -1).sum(axis=1)


def whole_bin_quantize(tensor, bins, std):
    scale = (std * np.asarray(bins)[:, None]).astype(np.float32)
    normalised = tensor / scale[:, None, :]
    np.rint(normalised, out=normalised)
    return np.clip(normalised, -255, 255, out=normalised).astype(np.int16)


def whole_counts(symbols, ctx, num_ctx, lo, hi):
    width = hi - lo + 1
    flat = (ctx * width - lo) + symbols
    return np.bincount(flat.ravel(order="K"), minlength=num_ctx * width).reshape(num_ctx, width)


def whole_errors(encoder, kv):
    """Per-level error statistics as the whole-tensor token-major pass took them."""
    from repro.core.encoder import _dequantize

    def sum_of_squares(decoded, reference):
        diff = decoded.astype(np.float64)
        diff -= reference
        return np.einsum("tlc,tlc->l", diff, diff)

    group = encoder.config.group_size
    errors = {}
    for level in encoder.config.levels:
        total = 0
        for (delta, anchor), original in zip(encoder.quantize(kv, level), (kv.k, kv.v)):
            tokens = original.transpose(1, 0, 2)
            deltas = _dequantize(delta.symbols, delta.scale)
            if anchor is None:
                total = total + sum_of_squares(deltas, tokens.copy())
                continue
            others = np.ones(len(tokens), dtype=bool)
            others[::group] = False
            anchors = _dequantize(anchor.symbols, anchor.scale)
            width, row = group - 1, anchors.shape[1] * anchors.shape[2]
            groups = len(tokens) // group
            body = deltas[: groups * width].reshape(groups, width, row)
            body += anchors[:groups].reshape(groups, 1, row)
            if groups * width < len(deltas):
                deltas[groups * width :] += anchors[groups]
            total = total + (
                sum_of_squares(anchors, tokens[::group].copy())
                + sum_of_squares(deltas, tokens[others])
            )
        errors[level.name] = total
    return errors


def check_blockings() -> None:
    """Assert each blocked pass ``==`` its whole-tensor form at several block sizes."""
    import repro.core.kv_cache as kv_cache
    import repro.core.probability_model as probability_model
    from repro.core import CacheGenConfig, CacheGenEncoder, KVCache
    from repro.core.probability_model import _band_counts, _context_ids
    from repro.core.quantization import bin_quantize, layer_std

    rng = np.random.default_rng(49)
    default_values = kv_cache.LAYER_BLOCK_VALUES
    default_columns = probability_model._SCORE_BLOCK_COLUMNS
    # Enough tokens that a one-layer einsum would sum in another order; odd
    # layer counts leave a last lone layer to join its neighbour; 301 and 305
    # tokens end in a group of the anchor alone and in a partial group.
    for layers, tokens, channels in ((5, 301, 32), (32, 305, 32), (3, 9, 4)):
        walk = rng.standard_normal((2, layers, tokens, channels)).cumsum(axis=2) * 0.1
        kv = KVCache(k=walk[0], v=walk[1] + rng.standard_normal((layers, 1, channels)))
        chunk = kv.slice_tokens(3, tokens - 2)  # a view, as ingest chunks are
        lossy = (kv.k + rng.standard_normal(kv.shape).astype(np.float32) * 0.01).astype(np.float32)
        bins = np.linspace(0.5, 1.5, layers)
        encoders = [
            CacheGenEncoder(CacheGenConfig(use_delta=use_delta, group_size=group)).fit([kv])
            for use_delta, group in ((True, 10), (False, 10), (True, 3))
        ]
        wanted = [whole_errors(encoder, chunk) for encoder in encoders]
        per_layer = tokens * channels
        for values in (1, 3 * per_layer, default_values):
            kv_cache.LAYER_BLOCK_VALUES = values
            for cache in (kv, chunk):
                assert np.array_equal(cache.variance_per_layer(), whole_variance(cache))
            assert np.array_equal(
                kv_cache.squared_error_per_layer(kv.k, lossy), whole_squared_error(kv.k, lossy)
            )
            deltas = kv.k.transpose(1, 0, 2).copy().transpose(1, 0, 2)  # token-major memory
            std = layer_std(deltas)
            assert np.array_equal(
                bin_quantize(deltas, bins, std=std).symbols, whole_bin_quantize(deltas, bins, std)
            )
            symbols = bin_quantize(deltas, bins, std=std).symbols
            lo, hi = int(symbols.min()), int(symbols.max())
            for grouping in ("channel_layer", "layer", "channel", "token", "global"):
                ctx, num_ctx = _context_ids(symbols.shape, grouping)
                assert np.array_equal(
                    _band_counts(symbols, ctx, num_ctx, lo, hi),
                    whole_counts(symbols, ctx, num_ctx, lo, hi),
                )
            for encoder, want in zip(encoders, wanted):
                _, errors = encoder.encode_with_errors(chunk)
                for name, error in want.items():
                    assert np.array_equal(errors[name], error), (layers, values, name)
            model = encoders[0].model_for_level("lowest").delta_model
            wide = rng.integers(-255, 256, size=(layers, tokens, channels)).astype(np.int16)
            scores = []
            for columns in (3, 64, default_columns, 1 << 20):
                probability_model._SCORE_BLOCK_COLUMNS = columns
                scores.append(model.cross_entropy_bits(wide))
            probability_model._SCORE_BLOCK_COLUMNS = default_columns
            assert len(set(scores)) == 1, scores


@pytest.mark.parametrize("features", ["default", "no-avx512"])
def test_blocked_passes_equal_whole_tensor_forms(features):
    """:func:`check_blockings` in a fresh interpreter: numpy reads the switch at import."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    env = {"PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]), "PATH": ""}
    if features == "no-avx512":
        if "X86_V4" not in __cpu_dispatch__:
            pytest.skip("this numpy build dispatches no AVX-512 kernels")
        env["NPY_DISABLE_CPU_FEATURES"] = NO_AVX512
    script = f"import runpy; runpy.run_path({__file__!r})['check_blockings']()"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-4000:]
