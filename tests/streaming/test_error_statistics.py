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

from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, KVCache
from repro.core.kv_cache import squared_error_per_layer
from repro.serving.api import profile_codec
from repro.serving.concurrent.processes import distortion, materialise
from repro.streaming import TEXT_CONFIG, prepare_chunks

REL = 1e-12
LAYERS, CHANNELS = 4, 8

#: Configuration variants by name: the paper's codec, its ablations, exact
#: coding, and a group size that leaves ragged last groups.
VARIANTS = {
    "default": {},
    "no-delta": {"use_delta": False},
    "no-ac": {"use_arithmetic_coding": False},
    "no-layerwise": {"use_layerwise_quant": False},
    "exact": {"exact_entropy_coding": True},
    "group-3": {"group_size": 3},
}


def _random_kv(seed: int, num_tokens: int) -> KVCache:
    """A random walk over tokens, so deltas are smaller than values."""
    rng = np.random.default_rng(seed)
    k, v = (
        np.cumsum(rng.standard_normal((LAYERS, num_tokens, CHANNELS)), axis=1)
        for _ in range(2)
    )
    return KVCache(k=k, v=v, model_name="random-walk")


@pytest.fixture(scope="module")
def codecs():
    """One small fitted codec per variant, keyed by name."""
    samples = [_random_kv(seed, 60) for seed in range(2)]
    return {
        name: CacheGenEncoder(CacheGenConfig(**changes)).fit(samples).codec
        for name, changes in VARIANTS.items()
    }


def _encoder(codecs, variant: str, chunk_tokens: int) -> CacheGenEncoder:
    config = CacheGenConfig(chunk_tokens=chunk_tokens, **VARIANTS[variant])
    return CacheGenEncoder(config, codec=codecs[variant])


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
    variant=st.sampled_from(sorted(VARIANTS)),
    num_tokens=st.integers(1, 45),
    chunk_tokens=st.integers(1, 25),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=45),
    seed=st.integers(0, 2**16),
)
def test_statistics_distortion_equals_the_tensor_path(
    codecs, variant, num_tokens, chunk_tokens, picks, seed
):
    """Any per-chunk mix of levels and text: 1-token and ragged chunks, every variant."""
    _check(
        _encoder(codecs, variant, chunk_tokens),
        _random_kv(seed, num_tokens),
        lambda names, index: names[picks[index % len(picks)] % len(names)],
    )


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    variant=st.sampled_from(sorted(VARIANTS)),
    num_tokens=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_each_level_error_is_the_decoded_tensors_squared_error(codecs, variant, num_tokens, seed):
    """Per chunk and level, against ``CacheGenDecoder.decode`` of the same encoding."""
    encoder = _encoder(codecs, variant, 1_500)
    kv = _random_kv(seed, num_tokens)
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


def test_exact_statistics_equal_estimated_ones(codecs):
    """Exact coding decodes the bitstreams for its statistics: the same symbols."""
    kv = _random_kv(7, 33)
    _, estimated = _encoder(codecs, "default", 1_500).encode_with_errors(kv)
    exact_codec = {"exact": codecs["default"]}
    _, exact = _encoder(exact_codec, "exact", 1_500).encode_with_errors(kv)
    for name, error in estimated.items():
        np.testing.assert_allclose(exact[name], error, rtol=REL, atol=0)


@pytest.mark.parametrize("variant", ["default", "no-delta", "no-ac"])
@pytest.mark.parametrize("chunk_tokens", [40, 256, 1500])
@pytest.mark.parametrize("num_tokens", [1, 7, 300, 1600])
def test_decode_digest_shapes(llm, variant, chunk_tokens, num_tokens):
    """The shapes ``test_decode_digests.py`` pins, on mistral-7b's profile."""
    config = CacheGenConfig(chunk_tokens=chunk_tokens, **VARIANTS[variant])
    encoder = CacheGenEncoder(config, codec=profile_codec("mistral-7b", config))
    kv = llm.calculate_kv("digest-context", num_tokens)
    _check(encoder, kv, lambda names, index: names[index % len(names)])
