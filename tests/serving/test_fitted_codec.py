"""One offline codec profile per model and process: same results, nothing writable."""

from __future__ import annotations

import dataclasses
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.core import CacheGenConfig, CacheGenEncoder
from repro.llm import MISTRAL_7B, SyntheticLLM
from repro.serving import engine as engine_module
from repro.serving.api import ServeRequest, ServingSpec, build_backend, profile_codec
from repro.serving.api.driver import Driver
from repro.serving.engine import ContextLoadingEngine
from repro.simcheck.race import run_report_digest

BASE = ServingSpec(model="mistral-7b", chunk_tokens=256)
SPECS = {
    "single": BASE,
    "cluster": BASE.with_(topology="cluster", num_nodes=2, replication=2, concurrency=2),
    # The hot tier holds one 640-token context, so later ingests demote.
    "tiered": BASE.with_(
        topology="tiered", num_nodes=2, max_bytes_per_node=60e6, cold_bytes_per_node=400e6
    ),
}
REQUESTS = [
    ServeRequest(f"doc-{i % 3}", f"Q{i}?", arrival_s=0.05 * i, num_tokens=(640, 320)[i % 2])
    for i in range(6)
]


def digest(backend) -> tuple:
    report = Driver(backend, REQUESTS).run()
    return run_report_digest(report), tuple(
        (r.transmitted_bytes, r.quality.value, tuple(r.chunk_configs)) for r in report.responses
    )


def profile_samples(model=MISTRAL_7B):
    """The sample caches ``profile_codec`` fits on, drawn afresh."""
    llm = SyntheticLLM(model)
    return [
        llm.calculate_kv(f"__profile-{i}", engine_module._PROFILE_TOKENS)
        for i in range(engine_module._PROFILE_SAMPLES)
    ]


@pytest.fixture(scope="module")
def fresh_codec():
    """A profile fitted here, by hand, never through the memo."""
    return CacheGenEncoder(BASE.resolved_config()).fit(profile_samples()).codec


@pytest.fixture()
def fits(monkeypatch) -> list:
    """An empty profile memo for this test, and the ``CacheGenEncoder.fit`` calls it makes."""
    monkeypatch.setattr(engine_module, "_PROFILES", {})
    calls = []
    real_fit = CacheGenEncoder.fit

    def counting_fit(self, sample_caches):
        calls.append(self.config)
        return real_fit(self, sample_caches)

    monkeypatch.setattr(CacheGenEncoder, "fit", counting_fit)
    return calls


@pytest.mark.parametrize("name", sorted(SPECS))
def test_backends_sharing_a_codec_match_a_backend_on_a_fresh_fit(name, fresh_codec):
    spec = SPECS[name]
    expected = digest(build_backend(spec, codec=fresh_codec))
    # Two pairs built on the process's one profile, run in build order and in reverse.
    first, second = build_backend(spec), build_backend(spec)
    assert first.engine.encoder.codec is second.engine.encoder.codec is not fresh_codec
    assert [digest(first), digest(second)] == [expected, expected]
    first, second = build_backend(spec), build_backend(spec)
    assert [digest(second), digest(first)] == [expected, expected]


def test_backends_of_one_model_share_one_profile(fits):
    specs = [
        ServingSpec(),
        ServingSpec(chunk_tokens=256, topology="cluster", num_nodes=2, slo_s=0.5),
    ]
    first, second = (build_backend(spec).engine.encoder.codec for spec in specs)
    assert first is second
    assert len(fits) == 1


def test_other_fit_fields_or_model_dims_profile_apart(fits):
    default = profile_codec(MISTRAL_7B)
    coarser = profile_codec(MISTRAL_7B, CacheGenConfig(group_size=5))
    narrow_model = dataclasses.replace(MISTRAL_7B, sim_channels=16)
    narrow = profile_codec(narrow_model)
    assert len({id(default), id(coarser), id(narrow)}) == 3
    assert len(fits) == 3
    assert (default.sim_dims, narrow.sim_dims) == ((32, 32), (32, 16))
    assert narrow.model_name == default.model_name == "mistral-7b"
    # By name or by config, with any non-fit field: one key, no further fit.
    assert profile_codec("mistral-7b", CacheGenConfig(exact_entropy_coding=True)) is default
    assert profile_codec(narrow_model, CacheGenConfig(chunk_tokens=64)) is narrow
    assert len(fits) == 3


def test_token_grouping_is_refused_on_every_call(fits):
    config = CacheGenConfig(probability_grouping="token")
    for _ in range(2):
        with pytest.raises(ValueError, match="Figure 5"):
            profile_codec(MISTRAL_7B, config)
    assert fits == []


def test_memoized_profile_equals_a_fresh_fit(fresh_codec):
    memoized = profile_codec(MISTRAL_7B, BASE.resolved_config())
    assert memoized is not fresh_codec
    assert memoized.fit_fields == fresh_codec.fit_fields
    assert memoized.sim_dims == fresh_codec.sim_dims
    for name, models in memoized.level_models.items():
        fresh = fresh_codec.level_models[name]
        assert np.array_equal(models.delta_model.counts, fresh.delta_model.counts)
        assert np.array_equal(models.anchor_model.counts, fresh.anchor_model.counts)


def test_codec_of_another_model_shape_is_refused_at_construction(fitted_codec):
    """It used to construct, then die at the first ingest on a context-count mismatch."""
    narrow = dataclasses.replace(MISTRAL_7B, sim_channels=16)
    with pytest.raises(ValueError, match="32 layers x 32 channels, not 32 x 16"):
        ContextLoadingEngine(narrow, config=CacheGenConfig(), codec=fitted_codec())


def test_nothing_reachable_from_a_codec_is_writable(fitted_codec):
    codec = fitted_codec()
    backend = build_backend(BASE, codec=codec)
    backend.ingest("doc", 320)  # fills the lazily computed log-probability tables
    assert backend.engine.encoder.codec is codec
    with pytest.raises(FrozenInstanceError):
        codec.model_name = "other"
    with pytest.raises(TypeError):
        codec.level_models["medium"] = None
    for models in codec.level_models.values():
        with pytest.raises(FrozenInstanceError):
            models.delta_model = None
        for model in (models.delta_model, models.anchor_model):
            held = [array for array in vars(model).values() if isinstance(array, np.ndarray)]
            assert len(held) == 4  # band, totals and the two log-probability tables
            dense = [model.counts, model.probabilities(), model.log2_probabilities()]
            for table in held + dense:
                assert not table.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    table[(0,) * table.ndim] = 0.0


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"model": "llama-7b"}, "profiled for model 'mistral-7b', not 'llama-7b'"),
        ({"config": CacheGenConfig(group_size=5)}, "group_size=10.*group_size=5"),
        ({"levels": ("medium", "low")}, "profiled with levels="),
        ({"config": CacheGenConfig(probability_grouping="global")}, "probability_grouping="),
    ],
)
def test_codec_for_another_model_or_configuration_is_refused(changes, message, fitted_codec):
    with pytest.raises(ValueError, match=message):
        build_backend(BASE.with_(**changes), codec=fitted_codec())
    if "model" not in changes:
        with pytest.raises(ValueError, match=message):
            CacheGenEncoder(BASE.with_(**changes).resolved_config(), codec=fitted_codec())


def test_token_grouping_is_refused_when_the_backend_is_built():
    """It used to build, then die at the first ingest on a context-count mismatch."""
    spec = ServingSpec(config=CacheGenConfig(probability_grouping="token"))
    with pytest.raises(ValueError, match="Figure 5"):
        build_backend(spec)
