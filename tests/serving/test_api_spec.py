"""ServingSpec: construction-time validation and derived configuration."""

from __future__ import annotations

import pytest

from repro.core import CacheGenConfig
from repro.serving.api import ServingSpec


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


class TestCopies:
    def test_with_derives_modified_copy(self):
        spec = ServingSpec()
        other = spec.with_(concurrency=8)
        assert spec.concurrency == 1
        assert other.concurrency == 8
