"""Tests for the synthetic LLM substrate."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.delta import consecutive_delta_variance_ratio
from repro.llm import LLAMA_7B, MISTRAL_7B, SyntheticLLM


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


class TestBitIdenticalSynthesis:
    """The AR(1) recursion is hand-rolled so ``import repro`` needs no scipy;
    every tensor must stay the one the ``lfilter`` formulation produced."""

    #: SHA-256 of ``k.tobytes() + v.tobytes()`` of
    #: ``SyntheticLLM("mistral-7b").calculate_kv("digest-context", n)``, taken
    #: with the ``scipy.signal.lfilter`` implementation this one replaced.
    DIGESTS = {
        1: "279cf33b737c6f99b210684cce747f3d1640b8b80e79ae0c67c1de78e05dbbab",
        7: "ac4b49cb3b3919eeef8560904818dca01a018d96db3407d61891e5427930025d",
        320: "cf45575a68b1b88176f98b0fefb3fe4dcb92e59c401db62be2980a9f070ab485",
        1500: "71b2c1cf07cfd98c546703c4340ff4002e920553f542ea2964022f8ad78448e0",
    }

    @pytest.mark.parametrize("num_tokens", sorted(DIGESTS))
    def test_calculate_kv_matches_committed_digest(self, llm, num_tokens):
        kv = llm.calculate_kv("digest-context", num_tokens)
        digest = hashlib.sha256(kv.k.tobytes() + kv.v.tobytes()).hexdigest()
        assert digest == self.DIGESTS[num_tokens]

    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.999])
    @pytest.mark.parametrize("tokens", [1, 2, 40, 640, 2000])
    def test_stationary_ar1_equals_the_lfilter_formulation(self, rho, tokens):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        shape = (4, tokens, 6)

        def reference(rng):
            noise = rng.standard_normal(size=shape)
            series = lfilter([np.sqrt(1.0 - rho * rho)], [1.0, -rho], noise, axis=1)
            start = rng.standard_normal(size=(shape[0], 1, shape[2]))
            decay = np.power(rho, np.arange(tokens, dtype=np.float64))[None, :, None]
            return series + start * decay

        ours = SyntheticLLM._stationary_ar1(np.random.default_rng(7), shape, rho)
        assert ours.tobytes() == reference(np.random.default_rng(7)).tobytes()


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
