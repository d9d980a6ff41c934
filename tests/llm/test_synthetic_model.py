"""Tests for the synthetic LLM substrate."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.delta import consecutive_delta_variance_ratio
from repro.llm import LLAMA_7B, MISTRAL_7B, SyntheticLLM, synthetic_model


class TestCalculateKV:
    def test_shapes(self, llm, kv):
        cfg = llm.config
        assert kv.shape == (cfg.sim_layers, 640, cfg.sim_channels)
        assert kv.full_layers == cfg.num_layers
        assert kv.full_channels == cfg.kv_channels

    def test_deterministic(self, llm):
        a = llm.calculate_kv("ctx", 100)
        b = llm.calculate_kv("ctx", 100)
        np.testing.assert_array_equal(a.k, b.k)

    def test_different_contexts_differ(self, llm):
        a = llm.calculate_kv("ctx-a", 100)
        b = llm.calculate_kv("ctx-b", 100)
        assert not np.array_equal(a.k, b.k)

    def test_channel_structure_shared_across_contexts(self, llm):
        """Per-channel scales are a model property, not a context property."""
        a = llm.calculate_kv("ctx-a", 400)
        b = llm.calculate_kv("ctx-b", 400)
        corr = np.corrcoef(a.k.std(axis=1).ravel(), b.k.std(axis=1).ravel())[0, 1]
        assert corr > 0.9

    def test_invalid_tokens(self, llm):
        with pytest.raises(ValueError):
            llm.calculate_kv("ctx", 0)

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            SyntheticLLM(MISTRAL_7B, token_correlation=1.5)

    def test_accepts_model_name(self):
        llm = SyntheticLLM("llama-7b")
        assert llm.config is LLAMA_7B


class TestTokenMajorSynthesis:
    """The four AR(1) series are drawn token-major, a block at a time, from
    one stream: a context is a prefix of every longer one, and the block
    length changes no value."""

    #: SHA-256 of ``k.tobytes() + v.tobytes()`` of
    #: ``SyntheticLLM("mistral-7b").calculate_kv("digest-context", n)``.
    DIGESTS = {
        1: "9678f6981360ac3a913eb169935f2a7c40e0a656e94ee351b97a7932d3e9e0a7",
        7: "8a28f1ed4877ed41f3542910edecbfa5fd765151b9aa5ce1fb3b50ee08293da6",
        320: "30f836b8cbba79b9b15d34107754a82f31e4e1615e10e82c9f182acdd160ffc5",
        1500: "b418280b0e0fd8c73e3bda5ae2c4546890618c9d01a478c90e929589e66098c0",
    }

    @pytest.mark.parametrize("num_tokens", sorted(DIGESTS))
    def test_calculate_kv_matches_committed_digest(self, llm, num_tokens):
        kv = llm.calculate_kv("digest-context", num_tokens)
        digest = hashlib.sha256(kv.k.tobytes() + kv.v.tobytes()).hexdigest()
        assert digest == self.DIGESTS[num_tokens]

    @pytest.mark.parametrize(
        "short, long", [(1, 2), (63, 64), (64, 65), (65, 200), (128, 129), (300, 1500)]
    )
    def test_a_context_is_a_prefix_of_every_longer_one(self, llm, short, long):
        prefix, whole = llm.calculate_kv("prefix", short), llm.calculate_kv("prefix", long)
        assert prefix.k.tobytes() == whole.k[:, :short].tobytes()
        assert prefix.v.tobytes() == whole.v[:, :short].tobytes()

    @pytest.mark.parametrize("block_tokens", [1, 7, 64, 200])
    def test_the_block_length_changes_no_value(self, llm, monkeypatch, block_tokens):
        expected = llm.calculate_kv("blocks", 200)
        monkeypatch.setattr(synthetic_model, "SYNTHESIS_BLOCK_TOKENS", block_tokens)
        kv = llm.calculate_kv("blocks", 200)
        assert kv.k.tobytes() == expected.k.tobytes()
        assert kv.v.tobytes() == expected.v.tobytes()

    @pytest.mark.parametrize("component", ["fast", "slow"])
    def test_token_zero_has_unit_variance(self, component):
        """Across contexts, each lane's first token is ``scale * (mean + c)``
        with the other component switched off; ``c`` must have variance 1,
        the stationary variance, and not the 1.93 of a start decayed from
        token 0 instead of token -1."""
        llm = SyntheticLLM(MISTRAL_7B)
        if component == "fast":
            llm.SLOW_STD = 0.0
        else:
            llm.FAST_STD, llm.SLOW_STD = 0.0, 1.0
        layers, channels = llm.config.sim_layers, llm.config.sim_channels
        structure = np.random.default_rng(
            synthetic_model._stable_seed(llm.config.name, "channel-structure")
        )
        k_scale, _ = llm._channel_structure(structure, layers, channels)
        v_scale, _ = llm._channel_structure(structure, layers, channels)
        caches = [llm.calculate_kv(f"variance-{i}", 1) for i in range(200)]
        for first, scale in (
            (np.stack([kv.k[:, 0] for kv in caches]), k_scale),
            (np.stack([kv.v[:, 0] for kv in caches]), v_scale),
        ):
            variance = (first.astype(np.float64).var(axis=0, ddof=1) / scale**2).mean()
            assert variance == pytest.approx(1.0, abs=0.03)


@pytest.mark.parametrize("num_tokens", [480, 1500])
def test_synthesis_keeps_no_full_size_temporary(llm, num_tokens):
    """Alive at the peak: the float32 K and V and one float64 block of the
    four series, ``(64, 4, layers, channels)``, 2 MiB at 32 x 32."""
    llm.calculate_kv("warm-up", 8)
    layers, channels = llm.config.sim_layers, llm.config.sim_channels
    elements = layers * num_tokens * channels
    block = min(synthetic_model.SYNTHESIS_BLOCK_TOKENS, num_tokens) * 4 * layers * channels * 8
    bound = 2 * elements * 4 + block + 0.5e6
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        kv = llm.calculate_kv("memory-bound", num_tokens)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert kv.k.dtype == kv.v.dtype == np.float32
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB over the {bound / 1e6:.2f} MB bound"


class TestStatisticalProperties:
    def test_insight1_consecutive_delta_ratio(self, kv):
        assert 2.2 < consecutive_delta_variance_ratio(kv.k) < 3.2

    def test_stationary_variance_across_positions(self, llm):
        """Early tokens must not have systematically lower variance."""
        kv = llm.calculate_kv("stationarity", 1000)
        early = kv.k[:, :100, :].var()
        late = kv.k[:, -100:, :].var()
        assert 0.6 < early / late < 1.6

    def test_channel_heterogeneity(self, kv):
        """Channel scales must vary widely (Insight 3 prerequisite)."""
        stds = kv.k.std(axis=1)  # (layers, channels)
        ratio = np.percentile(stds, 95) / np.percentile(stds, 5)
        assert ratio > 3.0

    def test_attention_scores_sum_to_one(self, llm):
        scores = llm.attention_scores("ctx", 500)
        assert scores.shape == (500,)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores >= 0)

    def test_attention_scores_heavy_tailed(self, llm):
        scores = np.sort(llm.attention_scores("ctx", 1000))[::-1]
        assert scores[:100].sum() > 0.5

    def test_attention_invalid_tokens(self, llm):
        with pytest.raises(ValueError):
            llm.attention_scores("ctx", 0)


class TestGenerateWithKV:
    def test_lossless_cache_full_quality(self, llm, kv):
        result = llm.generate_with_kv(kv, reference_kv=kv)
        assert result.quality.relative_quality == pytest.approx(1.0)
        assert result.text

    def test_lossy_cache_lower_quality(self, llm, kv):
        noisy = kv.copy()
        noisy.k += 0.5 * kv.k.std()
        result = llm.generate_with_kv(noisy, reference_kv=kv)
        assert result.quality.relative_quality < 0.9

    def test_token_dropping_penalty(self, llm, kv):
        result = llm.generate_with_kv(
            kv, reference_kv=kv, token_keep_fraction=0.5, important_token_coverage=0.7
        )
        assert result.quality.relative_quality < 1.0

    def test_no_reference_means_lossless(self, llm, kv):
        result = llm.generate_with_kv(kv)
        assert result.quality.relative_quality == pytest.approx(1.0)

    @pytest.mark.parametrize("task", ["qa_accuracy", "qa_f1", "perplexity"])
    def test_all_tasks_supported(self, llm, kv, task):
        result = llm.generate_with_kv(kv, reference_kv=kv, task=task)
        assert result.quality.task == task
