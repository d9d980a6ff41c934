"""ServingSpec and ServeRequest: construction-time validation, derived configuration."""

from __future__ import annotations

import pytest

from repro.core import CacheGenConfig
from repro.serving.api import ServeRequest, ServingSpec

NAN, INF = float("nan"), float("inf")

#: Specs that used to construct and then fail to build or serve: an
#: ``IndexError``, a ``KeyError`` or ``TypeError`` at build, a meaningless
#: TTFT, or every request a silent hard failure.  name -> (fields, error, match)
UNSERVABLE_SPECS = {
    "no levels": ({"levels": ()}, ValueError, "levels"),
    "unknown model": ({"model": "no-such-model"}, ValueError, "no-such-model"),
    "model of another type": ({"model": 7}, TypeError, "model"),
    "fractional node count": (
        {"topology": "cluster", "num_nodes": 2.5}, TypeError, "num_nodes"
    ),
    "NaN bandwidth": ({"bandwidth_gbps": NAN}, ValueError, "bandwidth_gbps"),
    "infinite tier bandwidth": (
        {"tier_bandwidth_gbps": INF}, ValueError, "tier_bandwidth_gbps"
    ),
    "NaN node bandwidth": (
        {"topology": "cluster", "num_nodes": 2, "node_bandwidths_gbps": (3.0, NAN)},
        ValueError,
        "node_bandwidths_gbps",
    ),
    "NaN hot capacity": ({"max_bytes_per_node": NAN}, ValueError, "max_bytes_per_node"),
    "NaN batch overhead": ({"batch_overhead": NAN}, ValueError, "batch_overhead"),
    "NaN SLO": ({"slo_s": NAN}, ValueError, "slo_s"),
    "fractional GPU fleet": ({"gpu_workers": 1.5}, TypeError, "gpu_workers"),
    "fractional chunk": ({"chunk_tokens": 256.5}, TypeError, "chunk_tokens"),
}

#: Requests that used to construct and then raise mid-run, serve silently
#: against a meaningless SLO, or become a silent hard failure.
UNSERVABLE_REQUESTS = {
    "no tokens": ({"num_tokens": 0}, ValueError, "num_tokens"),
    "negative tokens": ({"num_tokens": -5}, ValueError, "num_tokens"),
    "fractional tokens": ({"num_tokens": 320.5}, TypeError, "num_tokens"),
    "NaN arrival": ({"arrival_s": NAN}, ValueError, "arrival_s"),
    "zero SLO": ({"slo_s": 0}, ValueError, "slo_s"),
    "negative SLO": ({"slo_s": -1}, ValueError, "slo_s"),
    "unknown task": ({"task": "bogus"}, ValueError, "bogus"),
}


class TestValidation:
    def test_defaults_construct(self):
        spec = ServingSpec()
        assert spec.topology == "single"
        assert spec.concurrency == 1

    def test_replication_above_node_count_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            ServingSpec(topology="cluster", num_nodes=2, replication=3)

    def test_cold_tier_without_bounded_hot_tier_rejected(self):
        with pytest.raises(ValueError, match="bounded hot tier"):
            ServingSpec(
                topology="tiered", num_nodes=2, replication=2,
                cold_bytes_per_node=1e9,
            )

    def test_tiered_topology_requires_cold_tier(self):
        with pytest.raises(ValueError, match="cold tier"):
            ServingSpec(
                topology="tiered", num_nodes=2, replication=2,
                max_bytes_per_node=1e8,
            )

    def test_admission_limit_must_be_positive(self):
        for bad in (0, -4):
            with pytest.raises(ValueError, match="admission_limit"):
                ServingSpec(admission_limit=bad)

    def test_unknown_eviction_policy_rejected(self):
        with pytest.raises(ValueError, match="eviction policy"):
            ServingSpec(eviction_policy="mru")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            ServingSpec(placement="random")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            ServingSpec(topology="mesh")

    def test_single_topology_is_one_node_one_replica(self):
        with pytest.raises(ValueError, match="single topology"):
            ServingSpec(topology="single", num_nodes=3, replication=3)

    def test_single_topology_has_no_tier(self):
        with pytest.raises(ValueError, match="tier"):
            ServingSpec(
                topology="single", max_bytes_per_node=1e8, cold_bytes_per_node=1e9
            )

    def test_concurrency_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="concurrency"):
            ServingSpec(concurrency=0)

    def test_node_bandwidths_must_match_node_count(self):
        with pytest.raises(ValueError, match="one speed per node"):
            ServingSpec(
                topology="cluster", num_nodes=3, replication=2,
                node_bandwidths_gbps=(3.0, 1.0),
            )

    def test_slo_must_be_positive(self):
        with pytest.raises(ValueError, match="slo_s"):
            ServingSpec(slo_s=0.0)

    def test_unknown_encoding_level_rejected(self):
        with pytest.raises(ValueError, match="encoding level"):
            ServingSpec(levels=("medium", "ultra"))

    def test_unknown_default_level_rejected(self):
        with pytest.raises(ValueError, match="default level"):
            ServingSpec(default_level="ultra")


@pytest.mark.parametrize(
    "fields, error, match", UNSERVABLE_SPECS.values(), ids=list(UNSERVABLE_SPECS)
)
def test_a_spec_that_cannot_serve_does_not_construct(fields, error, match):
    with pytest.raises(error, match=match):
        ServingSpec(**fields)


@pytest.mark.parametrize(
    "fields, error, match", UNSERVABLE_REQUESTS.values(), ids=list(UNSERVABLE_REQUESTS)
)
def test_a_request_that_cannot_be_served_does_not_construct(fields, error, match):
    with pytest.raises(error, match=match):
        ServeRequest("doc", "Q?", **fields)


class TestCodecResolution:
    def test_chunk_tokens_applied(self):
        assert ServingSpec(chunk_tokens=256).resolved_config().chunk_tokens == 256

    def test_level_subset_preserved_in_order(self):
        config = ServingSpec(levels=("high", "low")).resolved_config()
        assert [level.name for level in config.levels] == ["high", "low"]
        # The paper default ("medium") is gone; the subset's first level rules.
        assert config.default_level.name == "high"

    def test_default_level_applied(self):
        config = ServingSpec(default_level="low").resolved_config()
        assert config.default_level.name == "low"

    def test_full_config_passthrough(self):
        base = CacheGenConfig(chunk_tokens=512, group_size=5)
        config = ServingSpec(config=base, chunk_tokens=256).resolved_config()
        assert config.chunk_tokens == 256
        assert config.group_size == 5
