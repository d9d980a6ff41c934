"""Shared fixtures for the test suite.

Fixtures are session-scoped where construction is expensive (synthetic KV
generation, encoder profiling) so the several hundred tests stay fast.

The serving/cluster/fleet suites additionally run under the simcheck runtime
sanitizers (see ``pytest_collection_modifyitems``): every driver run in those
suites gets a recording :class:`~repro.simcheck.sanitizers.ClockSanitizer`
and strict conservation-invariant checks.  Run the subset alone with
``pytest -m simcheck``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, EncodedKV, KVCache
from repro.core.encoder import _PreparedKV
from repro.llm import MISTRAL_7B, ComputeModel, QualityModel, SyntheticLLM
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving.api import ServeRequest, ServeResponse, profile_codec
from repro.telemetry.export import _iter_chrome_events, _trace_trailer

#: Context length used by most tests — small enough to be fast, large enough
#: to span several anchor groups and more than one streaming chunk.
TEST_TOKENS = 640

#: Test directories whose runs exercise the event simulation; the simcheck
#: sanitizers are force-enabled for every test collected under them.
_SIMCHECK_DIRS = ("tests/serving", "tests/cluster", "tests/simcheck", "tests/faults")


# Example budgets of the property tests that do not set their own
# (``tests/core/test_lane_coder.py``, the codec round-trip properties): a small
# one in tier-1, ten times that and a fixed seed in CI's ``codec-fuzz`` step
# (``--hypothesis-profile=codec-fuzz``).
settings.register_profile("tier1", max_examples=25, deadline=None)
settings.register_profile("codec-fuzz", max_examples=250, deadline=None, derandomize=True)
settings.load_profile("tier1")


#: CacheGen configuration variants by name: the paper's codec, its ablations,
#: exact coding, and a group size that leaves ragged last groups.  The oracles
#: that score encodings from error statistics run over every one.
CODEC_VARIANTS = {
    "default": {},
    "no-delta": {"use_delta": False},
    "no-ac": {"use_arithmetic_coding": False},
    "no-layerwise": {"use_layerwise_quant": False},
    "exact": {"exact_entropy_coding": True},
    "group-3": {"group_size": 3},
}


def random_walk_kv(seed: int, num_tokens: int, layers: int = 4, channels: int = 8) -> KVCache:
    """A random walk over tokens, so deltas are smaller than values."""
    rng = np.random.default_rng(seed)
    k, v = (
        np.cumsum(rng.standard_normal((layers, num_tokens, channels)), axis=1) for _ in range(2)
    )
    return KVCache(k=k, v=v, model_name="random-walk")


def variant_encoder(codecs, variant: str, chunk_tokens: int) -> CacheGenEncoder:
    """An encoder of ``CODEC_VARIANTS[variant]`` on its fitted codec in ``codecs``."""
    config = CacheGenConfig(chunk_tokens=chunk_tokens, **CODEC_VARIANTS[variant])
    return CacheGenEncoder(config, codec=codecs[variant])


def encode_all_levels(encoder: CacheGenEncoder, kv: KVCache) -> dict[str, EncodedKV]:
    """``kv`` encoded at every configured level, one preparation for all.

    What ``encode_with_errors`` does without the error statistics, so each
    encoding keeps ``kv`` as the source it decodes from.
    """
    prepared = _PreparedKV(kv)
    return {level.name: encoder.encode(prepared, level) for level in encoder.config.levels}


def chrome_trace_events(tracer) -> list[dict]:
    """Every Chrome trace event ``write_chrome_trace`` writes, in one list."""
    return list(_iter_chrome_events(tracer))


def to_chrome_trace(tracer) -> dict:
    """The whole Chrome trace object ``write_chrome_trace`` writes, in memory."""
    return {"traceEvents": chrome_trace_events(tracer), **_trace_trailer(tracer)}


def serve_one(backend, request: ServeRequest) -> ServeResponse:
    """``request`` alone through ``backend``'s event executor (one ``run``)."""
    (response,) = backend.run([request])
    return response


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "simcheck: runs with the repro.simcheck runtime sanitizers enabled",
    )


def pytest_collection_modifyitems(config, items) -> None:
    for item in items:
        path = str(getattr(item, "path", "") or getattr(item, "fspath", ""))
        normalized = path.replace("\\", "/")
        if any(directory in normalized for directory in _SIMCHECK_DIRS):
            item.add_marker(pytest.mark.simcheck)


@pytest.fixture(autouse=True)
def _simcheck_sanitizers(request, monkeypatch):
    """Enable strict runtime sanitizers for tests marked ``simcheck``."""
    if request.node.get_closest_marker("simcheck") is not None:
        from repro.simcheck import SimcheckConfig, runtime

        monkeypatch.setattr(runtime, "_default", SimcheckConfig())


@pytest.fixture(scope="session")
def llm() -> SyntheticLLM:
    return SyntheticLLM(MISTRAL_7B)


@pytest.fixture(scope="session")
def kv(llm: SyntheticLLM) -> KVCache:
    return llm.calculate_kv("test-context", TEST_TOKENS)


@pytest.fixture(scope="session")
def sample_caches(llm: SyntheticLLM) -> list[KVCache]:
    return [llm.calculate_kv(f"profile-{i}", 320) for i in range(2)]


@pytest.fixture(scope="session")
def small_config() -> CacheGenConfig:
    # Chunks of 256 tokens so TEST_TOKENS spans three chunks.
    return CacheGenConfig(chunk_tokens=256)


@pytest.fixture(scope="session")
def encoder(sample_caches: list[KVCache], small_config: CacheGenConfig) -> CacheGenEncoder:
    return CacheGenEncoder(small_config).fit(sample_caches)


@pytest.fixture(scope="session")
def fitted_codec():
    """Factory for the offline codec profile of ``(model, config)``.

    ``profile_codec`` loads (or, for a key no shipped file holds, fits) each
    profile once per process, so this is that call with the suite's default
    model; tests pass ``codec=fitted_codec()`` where they want the codec in
    hand.
    """

    def profile(model: str = "mistral-7b", config: CacheGenConfig | None = None):
        return profile_codec(model, config)

    return profile


@pytest.fixture(scope="session")
def decoder(encoder: CacheGenEncoder) -> CacheGenDecoder:
    return CacheGenDecoder(encoder)


@pytest.fixture(scope="session")
def variant_codecs():
    """One small fitted codec per :data:`CODEC_VARIANTS` entry, keyed by name."""
    samples = [random_walk_kv(seed, 60) for seed in range(2)]
    return {
        name: CacheGenEncoder(CacheGenConfig(**changes)).fit(samples).codec
        for name, changes in CODEC_VARIANTS.items()
    }


@pytest.fixture(scope="session")
def compute_model() -> ComputeModel:
    return ComputeModel(MISTRAL_7B)


@pytest.fixture(scope="session")
def quality_model() -> QualityModel:
    return QualityModel(num_layers=MISTRAL_7B.sim_layers)


@pytest.fixture()
def fast_link() -> NetworkLink:
    return NetworkLink(ConstantTrace(gbps(3.0)))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
