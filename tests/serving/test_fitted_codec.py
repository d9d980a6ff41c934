"""One offline codec profile shared by many backends: same results, nothing writable."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.core import CacheGenConfig, CacheGenEncoder
from repro.serving.api import ServeRequest, ServingSpec, build_backend
from repro.serving.api.driver import Driver
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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_backends_sharing_a_codec_match_backends_that_profile(name, fitted_codec):
    spec = SPECS[name]
    expected = digest(build_backend(spec))
    codec = fitted_codec()
    # Two pairs built on the one codec, run in build order and in reverse.
    first, second = build_backend(spec, codec=codec), build_backend(spec, codec=codec)
    assert [digest(first), digest(second)] == [expected, expected]
    first, second = build_backend(spec, codec=codec), build_backend(spec, codec=codec)
    assert [digest(second), digest(first)] == [expected, expected]


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
            assert not model.counts.flags.writeable
            assert not model.log2_probabilities().flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                model.counts[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                model.log2_probabilities()[0, 0] = 0.0


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
