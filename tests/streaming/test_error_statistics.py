"""Oracle for scoring a read from error statistics instead of tensors.

Ingest takes, per chunk and level, the per-layer squared error of the chunk's
decode (:meth:`CacheGenEncoder.encode_with_errors`), and per context the
per-layer variance of the lossless cache.  :func:`distortion` turns those into
the per-layer distortion of any per-chunk configuration mix.  The oracle is
the tensor path: decode every chunk at its configuration, concatenate
(:func:`materialise`), and take ``normalized_distortion_per_layer`` against the
reference in float64.  The two agree to 1e-12 relative: they add the same
float64 squared errors in another order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CODEC_VARIANTS, random_walk_kv, variant_encoder
from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, KVCache
from repro.core.kv_cache import squared_error_per_layer
from repro.serving.api import profile_codec
from repro.serving.concurrent.processes import distortion, materialise
from repro.streaming import TEXT_CONFIG, prepare_chunks

REL = 1e-12


def _check(encoder: CacheGenEncoder, kv: KVCache, choose) -> None:
    """Statistics distortion == tensor distortion, for the configs ``choose`` picks."""
    chunks = prepare_chunks(kv, encoder)
    names = [level.name for level in encoder.config.levels] + [TEXT_CONFIG]
    configs = [choose(names, index) for index in range(len(chunks))]
    got = distortion(chunks, configs, kv.variance_per_layer())
    want = kv.normalized_distortion_per_layer(
        materialise(chunks, configs, CacheGenDecoder(encoder), kv)
    )
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)
    if all(config == TEXT_CONFIG for config in configs):
        assert not got.any()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    variant=st.sampled_from(sorted(CODEC_VARIANTS)),
    num_tokens=st.integers(1, 45),
    chunk_tokens=st.integers(1, 25),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=45),
    seed=st.integers(0, 2**16),
)
def test_statistics_distortion_equals_the_tensor_path(
    variant_codecs, variant, num_tokens, chunk_tokens, picks, seed
):
    """Any per-chunk mix of levels and text: 1-token and ragged chunks, every variant."""
    _check(
        variant_encoder(variant_codecs, variant, chunk_tokens),
        random_walk_kv(seed, num_tokens),
        lambda names, index: names[picks[index % len(picks)] % len(names)],
    )


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    variant=st.sampled_from(sorted(CODEC_VARIANTS)),
    num_tokens=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_each_level_error_is_the_decoded_tensors_squared_error(
    variant_codecs, variant, num_tokens, seed
):
    """Per chunk and level, against ``CacheGenDecoder.decode`` of the same encoding."""
    encoder = variant_encoder(variant_codecs, variant, 1_500)
    kv = random_walk_kv(seed, num_tokens)
    encodings, errors = encoder.encode_with_errors(kv)
    assert set(errors) == set(encodings)
    decoder = CacheGenDecoder(encoder)
    for name, encoded in encodings.items():
        exact = encoded.k_stream.delta_payload.exact
        assert exact == (variant == "exact")
        assert encoded.source is None
        decoded = decoder.decode(encoded if exact else encoder.encode(kv, name))
        want = squared_error_per_layer(decoded.k, kv.k) + squared_error_per_layer(decoded.v, kv.v)
        np.testing.assert_allclose(errors[name], want, rtol=REL, atol=0)


def test_exact_statistics_equal_estimated_ones(variant_codecs):
    """Exact coding decodes the bitstreams for its statistics: the same symbols."""
    kv = random_walk_kv(7, 33)
    _, estimated = variant_encoder(variant_codecs, "default", 1_500).encode_with_errors(kv)
    exact_codec = {"exact": variant_codecs["default"]}
    _, exact = variant_encoder(exact_codec, "exact", 1_500).encode_with_errors(kv)
    for name, error in estimated.items():
        np.testing.assert_allclose(exact[name], error, rtol=REL, atol=0)


@pytest.mark.parametrize("variant", ["default", "no-delta", "no-ac"])
@pytest.mark.parametrize("chunk_tokens", [40, 256, 1500])
@pytest.mark.parametrize("num_tokens", [1, 7, 300, 1600])
def test_decode_digest_shapes(llm, variant, chunk_tokens, num_tokens):
    """The shapes ``test_decode_digests.py`` pins, on mistral-7b's profile."""
    config = CacheGenConfig(chunk_tokens=chunk_tokens, **CODEC_VARIANTS[variant])
    encoder = CacheGenEncoder(config, codec=profile_codec("mistral-7b", config))
    kv = llm.calculate_kv("digest-context", num_tokens)
    _check(encoder, kv, lambda names, index: names[index % len(names)])
