"""Tests for chunking, adaptation and CacheGen's chunked KV load."""

from __future__ import annotations

import pytest

from repro.baselines import CacheGenMethod, LoadRequest
from repro.datasets.base import ContextRecord
from repro.network import ConstantTrace, NetworkLink, StepTrace, gbps
from repro.serving.concurrent import ChunkedKVLoad, ConcurrentLoadSimulator
from repro.streaming import (
    TEXT_CONFIG,
    FixedLevelPolicy,
    SLOAwareAdapter,
    choose_policy,
    prepare_chunks,
    split_context,
)


@pytest.fixture(scope="module")
def prepared(encoder, kv):
    return prepare_chunks(kv, encoder)


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
            assert set(chunk.encodings) == level_names

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

    @pytest.mark.parametrize(
        "slo_s, adaptive, expected",
        [(1.0, True, SLOAwareAdapter), (None, True, FixedLevelPolicy), (1.0, False, FixedLevelPolicy)],
    )
    def test_one_policy_choice(self, slo_s, adaptive, expected):
        policy = choose_policy(["high", "low"], slo_s, "low", adaptive=adaptive)
        assert type(policy) is expected
        if expected is FixedLevelPolicy:
            assert policy.level_name == "low"

    def test_fixed_policy_always_same_level(self, prepared):
        policy = FixedLevelPolicy("low")
        decision = policy.decide(
            prepared, throughput_bps=gbps(1), remaining_time_s=1.0, recompute_time_s=1.0
        )
        assert decision.config == "low"


class TestChunkedLoad:
    """CacheGen's chunked KV load, evaluated alone on the event engine."""

    @pytest.fixture(scope="class")
    def load_request(self, llm, kv, compute_model, quality_model):
        def build(link: NetworkLink, slo_s: float | None = None) -> LoadRequest:
            record = ContextRecord(
                context_id="test-context",
                num_tokens=kv.num_tokens,
                prompt_tokens=32,
                task="qa_accuracy",
                question="What was the first topic?",
            )
            return LoadRequest(
                record=record,
                llm=llm,
                reference_kv=kv,
                link=link,
                compute_model=compute_model,
                quality_model=quality_model,
                slo_s=slo_s,
            )

        return build

    @pytest.fixture(scope="class")
    def medium(self, encoder):
        return CacheGenMethod(encoder, adaptive=False, fixed_level="medium")

    @staticmethod
    def played(method: CacheGenMethod, request: LoadRequest) -> ChunkedKVLoad:
        """``method``'s load of ``request``, after it ran alone on the event engine."""
        simulator = ConcurrentLoadSimulator()
        process = method.stage(simulator, request)
        simulator.run()
        return process

    def test_load_reconstructs_all_tokens(self, medium, load_request, prepared, kv, decoder, fast_link):
        process = self.played(medium, load_request(fast_link))
        assert process.configs == ["medium"] * len(prepared)
        assert process.materialise(decoder, kv).num_tokens == kv.num_tokens

    def test_reconstruction_close_to_reference(self, medium, load_request, kv, decoder, fast_link):
        process = self.played(medium, load_request(fast_link))
        distortion = kv.normalized_distortion_per_layer(process.materialise(decoder, kv))
        assert float(distortion.mean()) < 0.1

    def test_loading_delay_positive_and_ordered(self, medium, load_request, fast_link):
        result = medium.evaluate(load_request(fast_link))
        assert result.loading_delay_s >= result.breakdown.network_s > 0

    def test_slower_link_longer_delay(self, medium, load_request):
        fast = medium.evaluate(load_request(NetworkLink(ConstantTrace(gbps(10)))))
        slow = medium.evaluate(load_request(NetworkLink(ConstantTrace(gbps(0.5)))))
        assert slow.loading_delay_s > fast.loading_delay_s

    def test_slo_violation_flag(self, encoder, load_request):
        high = CacheGenMethod(encoder, adaptive=False, fixed_level="high")
        result = high.evaluate(load_request(NetworkLink(ConstantTrace(gbps(0.05))), slo_s=0.05))
        assert result.loading_delay_s > 0.05

    def test_adaptive_switches_under_bandwidth_drop(self, encoder, load_request):
        """Under a severe, lasting drop the adapter changes configuration."""
        trace = StepTrace(gbps(3), gbps(0.01), gbps(0.01), drop_at_s=0.02, recover_at_s=60.0)
        result = CacheGenMethod(encoder).evaluate(load_request(NetworkLink(trace), slo_s=0.2))
        assert len(set(result.extras["configs"])) > 1

    def test_adaptive_meets_slo_better_than_static(self, encoder, load_request):
        """Adaptation beats streaming the highest level through an outage."""
        trace = StepTrace(gbps(3), gbps(0.01), gbps(0.01), drop_at_s=0.02, recover_at_s=60.0)
        request = load_request(NetworkLink(trace), slo_s=0.2)
        adaptive = CacheGenMethod(encoder).evaluate(request)
        static = CacheGenMethod(encoder, adaptive=False, fixed_level="high").evaluate(request)
        assert adaptive.loading_delay_s < static.loading_delay_s

    def test_empty_chunks_rejected(self, adapter, compute_model):
        with pytest.raises(ValueError):
            ChunkedKVLoad([], adapter, compute_model)

    def test_text_chunks_are_lossless(self, encoder, load_request, kv, decoder):
        link = NetworkLink(ConstantTrace(gbps(0.001)))
        process = self.played(CacheGenMethod(encoder), load_request(link, slo_s=60.0))
        assert all(config == TEXT_CONFIG for config in process.configs)
        distortion = kv.normalized_distortion_per_layer(process.materialise(decoder, kv))
        assert float(distortion.mean()) == pytest.approx(0.0, abs=1e-9)
