"""Oracle for scoring the baselines from squared error and variance alone.

Every context-loading method is scored by one formula,
:func:`~repro.core.kv_cache.normalized_distortion`, fed per-layer float64
squared error and variance; no baseline builds the lossy KV cache.  The oracle
is the tensor path the baselines used to take: build the cache the receiver
ends up with (rescaled integers, or a CacheGen decode) and take
``normalized_distortion_per_layer`` against the lossless one.  Uniform
quantization adds the same squared errors in the same order, so it is
``np.array_equal``; composition takes the encoder's error statistics, which
agree with decode-and-diff to 1e-12 relative.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CODEC_VARIANTS, random_walk_kv, variant_encoder
from repro.baselines import CacheGenOnCompressionBaseline, H2OBaseline, LoadRequest
from repro.baselines.uniform_quant import quantization_distortion
from repro.core import CacheGenDecoder, KVCache
from repro.core.quantization import vectorwise_quantize
from repro.datasets.base import ContextRecord
from repro.network import ConstantTrace, NetworkLink, gbps

REL = 1e-12


def quantize_dequantize(kv: KVCache, num_bits: int) -> KVCache:
    """The cache the receiver rescales out of ``kv`` quantized to ``num_bits``."""
    q_k = vectorwise_quantize(kv.k, num_bits)
    q_v = vectorwise_quantize(kv.v, num_bits)
    return KVCache(
        k=q_k.dequantize(),
        v=q_v.dequantize(),
        model_name=kv.model_name,
        full_layers=kv.full_layers,
        full_channels=kv.full_channels,
    )


def _kept(kv: KVCache, keep_fraction: float, seed: int) -> KVCache:
    """The tokens of ``kv`` a token-dropping baseline keeping ``keep_fraction`` leaves."""
    num_kept = max(1, round(keep_fraction * kv.num_tokens))
    positions = np.sort(
        np.random.default_rng(seed).choice(kv.num_tokens, num_kept, replace=False)
    )
    return KVCache(k=kv.k[:, positions, :], v=kv.v[:, positions, :], model_name=kv.model_name)


@given(
    layers=st.integers(1, 6),
    num_tokens=st.integers(1, 60),
    channels=st.integers(1, 12),
    num_bits=st.integers(2, 16),
    keep_fraction=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_quantization_distortion_is_the_tensor_path(
    layers, num_tokens, channels, num_bits, keep_fraction, seed
):
    """Uniform quantization, full or token-dropped: bit-equal to dequantize-and-diff."""
    kv = _kept(random_walk_kv(seed, num_tokens, layers, channels), keep_fraction, seed)
    got = quantization_distortion(kv, num_bits)
    want = kv.normalized_distortion_per_layer(quantize_dequantize(kv, num_bits))
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def test_a_constant_layer_is_scored_against_the_variance_floor():
    """A layer without variance divides by the 1e-12 floor on both paths alike."""
    kv = random_walk_kv(3, 20)
    kv.k[1] = kv.v[1] = 0.3
    got = quantization_distortion(kv, 4)
    assert np.isfinite(got).all()
    assert np.array_equal(got, kv.normalized_distortion_per_layer(quantize_dequantize(kv, 4)))


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    variant=st.sampled_from(sorted(CODEC_VARIANTS)),
    num_tokens=st.integers(1, 60),
    keep_fraction=st.floats(0.05, 1.0),
    level=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_composition_statistics_are_decode_and_diff(
    llm, compute_model, quality_model, variant_codecs, variant, num_tokens, keep_fraction, level,
    seed,
):
    """CacheGen on H2O's survivors, every codec variant and level: bytes equal, distortion 1e-12."""
    kv = random_walk_kv(seed, num_tokens)
    encoder = variant_encoder(variant_codecs, variant, 1_500)
    level_name = encoder.config.levels[level].name
    request = LoadRequest(
        record=ContextRecord(
            context_id=f"oracle-{seed}",
            num_tokens=num_tokens,
            prompt_tokens=8,
            task="qa_accuracy",
            question="Q?",
        ),
        llm=llm,
        reference_kv=kv,
        link=NetworkLink(ConstantTrace(gbps(3))),
        compute_model=compute_model,
        quality_model=quality_model,
    )
    inner = H2OBaseline(keep_fraction=keep_fraction)
    method = CacheGenOnCompressionBaseline(inner, encoder, level_name)
    selection, encoded, got = method._encoded(request)

    kept, kept_selection = inner.kept_cache(request)
    assert np.array_equal(kept_selection.kept_positions, selection.kept_positions)
    reencoded = encoder.encode(kept, level_name)
    assert encoded.compressed_bytes == reencoded.compressed_bytes
    exact = encoded.k_stream.delta_payload.exact
    decoded = CacheGenDecoder(encoder).decode(encoded if exact else reencoded)
    want = kept.normalized_distortion_per_layer(decoded)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)
