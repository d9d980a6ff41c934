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

from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, KVCache
from repro.llm import MISTRAL_7B, ComputeModel, QualityModel, SyntheticLLM
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving.api import profile_codec

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
def _simcheck_sanitizers(request):
    """Enable strict runtime sanitizers for tests marked ``simcheck``."""
    if request.node.get_closest_marker("simcheck") is None:
        yield
        return
    from repro.simcheck.runtime import enabled

    with enabled():
        yield


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

    ``profile_codec`` takes each profile once per process, so this is that
    call with the suite's default model; tests pass ``codec=fitted_codec()``
    where they want the codec in hand.
    """

    def profile(model: str = "mistral-7b", config: CacheGenConfig | None = None):
        return profile_codec(model, config)

    return profile


@pytest.fixture(scope="session")
def decoder(encoder: CacheGenEncoder) -> CacheGenDecoder:
    return CacheGenDecoder(encoder)


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
