"""Tests for chunking, adaptation and the KV streamer."""

from __future__ import annotations

import pytest

from repro.network import ConstantTrace, NetworkLink, StepTrace, gbps
from repro.streaming import (
    TEXT_CONFIG,
    FixedLevelPolicy,
    KVStreamer,
    SLOAwareAdapter,
    prepare_chunks,
    split_context,
)


@pytest.fixture(scope="module")
def prepared(encoder, kv):
    return prepare_chunks(kv, encoder)


@pytest.fixture(scope="module")
def streamer(decoder, compute_model):
    return KVStreamer(decoder, compute_model, initial_throughput_bps=gbps(3))


@pytest.fixture()
def adapter(encoder):
    return SLOAwareAdapter(level_names=[level.name for level in encoder.config.levels])


class TestChunking:
    def test_split_covers_all_tokens(self, kv):
        chunks = split_context(kv, 256)
        assert sum(chunk.num_tokens for chunk in chunks) == kv.num_tokens
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_split_invalid_chunk_size(self, kv):
        with pytest.raises(ValueError):
            split_context(kv, 0)

    def test_prepare_chunks_has_all_levels(self, prepared, encoder):
        level_names = {level.name for level in encoder.config.levels}
        for chunk in prepared:
            assert set(chunk.level_names()) == level_names

    def test_prepared_sizes_ordered_by_level(self, prepared):
        for chunk in prepared:
            sizes = [chunk.bytes_for_level(name) for name in ("high", "medium", "low", "lowest")]
            assert sizes == sorted(sizes, reverse=True)

    def test_text_bytes_proportional_to_tokens(self, prepared, encoder):
        per_token = encoder.config.text_bytes_per_token
        for chunk in prepared:
            assert chunk.text_bytes == int(round(chunk.num_tokens * per_token))


class TestAdaptation:
    def test_high_bandwidth_picks_highest_level(self, prepared, adapter):
        decision = adapter.decide(
            prepared, throughput_bps=gbps(100), remaining_time_s=2.0, recompute_time_s=10.0
        )
        assert decision.config == "high"
        assert decision.feasible

    def test_medium_bandwidth_steps_down(self, prepared, adapter):
        total_high = sum(c.bytes_for_level("high") for c in prepared)
        throughput = total_high * 8.0 / 3.0  # high level would take 3s
        decision = adapter.decide(
            prepared, throughput_bps=throughput, remaining_time_s=2.0, recompute_time_s=10.0
        )
        assert decision.config in ("medium", "low", "lowest")

    def test_recompute_fallback_when_feasible(self, prepared, adapter):
        decision = adapter.decide(
            prepared, throughput_bps=gbps(0.001), remaining_time_s=5.0, recompute_time_s=1.0
        )
        assert decision.is_text

    def test_nothing_fits_picks_smallest(self, prepared, adapter):
        decision = adapter.decide(
            prepared, throughput_bps=gbps(0.01), remaining_time_s=0.05, recompute_time_s=100.0
        )
        assert decision.config == "lowest" or decision.is_text
        assert not decision.feasible

    def test_text_disabled(self, prepared, encoder):
        adapter = SLOAwareAdapter(
            level_names=[level.name for level in encoder.config.levels], allow_text_fallback=False
        )
        decision = adapter.decide(
            prepared, throughput_bps=gbps(10), remaining_time_s=10.0, recompute_time_s=0.01
        )
        assert not decision.is_text

    def test_empty_chunks_rejected(self, adapter):
        with pytest.raises(ValueError):
            adapter.decide([], throughput_bps=1.0, remaining_time_s=1.0, recompute_time_s=1.0)

    def test_fixed_policy_always_same_level(self, prepared):
        policy = FixedLevelPolicy("low")
        decision = policy.decide(
            prepared, throughput_bps=gbps(1), remaining_time_s=1.0, recompute_time_s=1.0
        )
        assert decision.config == "low"


class TestStreamer:
    def test_stream_reconstructs_all_tokens(self, streamer, prepared, kv, fast_link):
        result = streamer.stream(prepared, fast_link, FixedLevelPolicy("medium"))
        assert result.kv is not None
        assert result.kv.num_tokens == kv.num_tokens
        assert len(result.chunks) == len(prepared)

    def test_reconstruction_close_to_reference(self, streamer, prepared, kv, fast_link):
        result = streamer.stream(prepared, fast_link, FixedLevelPolicy("medium"))
        distortion = kv.normalized_distortion_per_layer(result.kv)
        assert float(distortion.mean()) < 0.1

    def test_total_time_positive_and_ordered(self, streamer, prepared, fast_link):
        result = streamer.stream(prepared, fast_link, FixedLevelPolicy("medium"))
        assert result.total_time_s >= result.network_time_s > 0

    def test_slower_link_longer_delay(self, streamer, prepared):
        fast = streamer.stream(prepared, NetworkLink(ConstantTrace(gbps(10))), FixedLevelPolicy("medium"))
        slow = streamer.stream(prepared, NetworkLink(ConstantTrace(gbps(0.5))), FixedLevelPolicy("medium"))
        assert slow.total_time_s > fast.total_time_s

    def test_slo_violation_flag(self, streamer, prepared):
        slow_link = NetworkLink(ConstantTrace(gbps(0.05)))
        result = streamer.stream(prepared, slow_link, FixedLevelPolicy("high"), slo_s=0.05)
        assert result.slo_violated

    def test_adaptive_switches_under_bandwidth_drop(self, streamer, prepared, adapter):
        """Under a severe, lasting drop the adapter changes configuration."""
        trace = StepTrace(gbps(3), gbps(0.01), gbps(0.01), drop_at_s=0.02, recover_at_s=60.0)
        result = streamer.stream(prepared, NetworkLink(trace), adapter, slo_s=0.2)
        assert len(set(result.configs)) > 1

    def test_adaptive_meets_slo_better_than_static(self, streamer, prepared, adapter):
        """Adaptation beats streaming the highest level through an outage."""
        trace = StepTrace(gbps(3), gbps(0.01), gbps(0.01), drop_at_s=0.02, recover_at_s=60.0)
        adaptive = streamer.stream(prepared, NetworkLink(trace), adapter, slo_s=0.2)
        static = streamer.stream(
            prepared, NetworkLink(trace), FixedLevelPolicy("high"), slo_s=0.2
        )
        assert adaptive.total_time_s < static.total_time_s

    def test_empty_chunks_rejected(self, streamer, fast_link, adapter):
        with pytest.raises(ValueError):
            streamer.stream([], fast_link, adapter)

    def test_text_chunks_are_lossless(self, decoder, compute_model, prepared, kv):
        streamer = KVStreamer(decoder, compute_model, initial_throughput_bps=gbps(0.001))
        link = NetworkLink(ConstantTrace(gbps(0.001)))
        adapter = SLOAwareAdapter(level_names=["high", "medium", "low", "lowest"])
        result = streamer.stream(prepared, link, adapter, slo_s=60.0)
        assert all(config == TEXT_CONFIG for config in result.configs)
        distortion = kv.normalized_distortion_per_layer(result.kv)
        assert float(distortion.mean()) == pytest.approx(0.0, abs=1e-9)
