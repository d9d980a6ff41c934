"""Tests for the context-loading methods (CacheGen and every baseline)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import (
    CacheGenMethod,
    CacheGenOnCompressionBaseline,
    GistingBaseline,
    H2OBaseline,
    LLMLinguaBaseline,
    LoadRequest,
    ScissorhandsBaseline,
    SmallerModelBaseline,
    TextContextBaseline,
    UniformQuantizationBaseline,
)
from repro.core import CacheGenEncoder
from repro.datasets.base import ContextRecord
from repro.llm import ComputeModel
from repro.network import ConstantTrace, NetworkLink, gbps
from repro.serving.concurrent import ConcurrentLoadSimulator


@pytest.fixture(scope="module")
def record(kv) -> ContextRecord:
    return ContextRecord(
        context_id="test-context",
        num_tokens=kv.num_tokens,
        prompt_tokens=32,
        task="qa_accuracy",
        question="What was the first topic?",
    )


@pytest.fixture(scope="module")
def request_(record, llm, kv, compute_model, quality_model):
    return LoadRequest(
        record=record,
        llm=llm,
        reference_kv=kv,
        link=NetworkLink(ConstantTrace(gbps(3))),
        compute_model=compute_model,
        quality_model=quality_model,
    )


class TestTextBaseline:
    def test_quality_is_lossless(self, request_):
        result = TextContextBaseline().evaluate(request_)
        assert result.quality.relative_quality == pytest.approx(1.0)

    def test_small_bytes_large_compute(self, request_):
        result = TextContextBaseline().evaluate(request_)
        assert result.transmitted_bytes < 1e5
        assert result.breakdown.compute_s > result.breakdown.network_s

    def test_invalid_bytes_per_token(self):
        with pytest.raises(ValueError):
            TextContextBaseline(bytes_per_token=0)


class TestQuantizationBaseline:
    @pytest.mark.parametrize("bits", [8, 4, 3])
    def test_size_proportional_to_bits(self, request_, bits):
        result = UniformQuantizationBaseline(bits).evaluate(request_)
        expected = request_.reference_kv.full_num_elements * bits / 8
        assert result.transmitted_bytes == pytest.approx(expected, rel=0.05)

    def test_8bit_nearly_lossless(self, request_):
        result = UniformQuantizationBaseline(8).evaluate(request_)
        assert result.quality.relative_quality > 0.995

    def test_fewer_bits_lower_quality(self, request_):
        qualities = [
            UniformQuantizationBaseline(bits).evaluate(request_).quality.value for bits in (8, 4, 3)
        ]
        assert qualities == sorted(qualities, reverse=True)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            UniformQuantizationBaseline(1)


class TestCacheGenMethod:
    @pytest.fixture(scope="class")
    def cachegen(self, encoder):
        return CacheGenMethod(encoder)

    def test_smaller_than_8bit_quant(self, request_, cachegen):
        quant = UniformQuantizationBaseline(8).evaluate(request_)
        ours = cachegen.evaluate(request_)
        assert ours.transmitted_bytes < quant.transmitted_bytes / 2.5

    def test_faster_than_text_and_quant(self, request_, cachegen):
        text = TextContextBaseline().evaluate(request_)
        quant = UniformQuantizationBaseline(8).evaluate(request_)
        ours = cachegen.evaluate(request_)
        assert ours.ttft_s < quant.ttft_s
        assert ours.ttft_s < text.ttft_s

    def test_quality_within_two_percent(self, request_, cachegen):
        result = cachegen.evaluate(request_)
        assert result.quality.relative_quality > 0.97

    def test_extras_report_configs(self, request_, cachegen):
        result = cachegen.evaluate(request_)
        assert len(result.extras["configs"]) >= 1
        assert result.loading_delay_s > 0

    def test_static_variant_uses_fixed_level(self, encoder, request_):
        static = CacheGenMethod(encoder, adaptive=False, fixed_level="low")
        result = static.evaluate(request_)
        assert set(result.extras["configs"]) == {"low"}

    def test_prepared_chunk_cache_reused(self, encoder, request_, monkeypatch):
        """A second evaluation of one request encodes nothing."""
        calls = []
        encode = CacheGenEncoder.encode
        monkeypatch.setattr(
            CacheGenEncoder,
            "encode",
            lambda self, *args, **kwargs: calls.append(1) or encode(self, *args, **kwargs),
        )
        method = CacheGenMethod(encoder)
        method.evaluate(request_)
        assert calls
        calls.clear()
        method.evaluate(request_)
        assert calls == []


class TestTokenDroppingBaselines:
    def test_h2o_size_scales_with_keep_fraction(self, request_):
        small = H2OBaseline(keep_fraction=0.3).evaluate(request_)
        large = H2OBaseline(keep_fraction=0.6).evaluate(request_)
        assert small.transmitted_bytes < large.transmitted_bytes

    def test_h2o_quality_close_to_paper(self, request_):
        result = H2OBaseline(keep_fraction=0.45).evaluate(request_)
        assert 0.94 < result.quality.relative_quality <= 1.0

    def test_llmlingua_worse_than_h2o_at_same_keep(self, request_):
        h2o = H2OBaseline(keep_fraction=0.5).evaluate(request_)
        lingua = LLMLinguaBaseline(keep_fraction=0.5).evaluate(request_)
        assert lingua.quality.value <= h2o.quality.value + 1e-6

    def test_scissorhands_is_heavy_hitter_policy(self, request_):
        result = ScissorhandsBaseline(keep_fraction=0.3).evaluate(request_)
        assert result.extras["attention_coverage"] > 0.5

    def test_invalid_keep_fraction(self):
        with pytest.raises(ValueError):
            H2OBaseline(keep_fraction=0.0)
        with pytest.raises(ValueError):
            LLMLinguaBaseline(keep_fraction=1.5)


class TestComposition:
    def test_cachegen_on_h2o_smaller_than_h2o(self, request_, encoder):
        h2o = H2OBaseline(keep_fraction=0.45)
        composed = CacheGenOnCompressionBaseline(h2o, encoder)
        assert (
            composed.evaluate(request_).transmitted_bytes
            < h2o.evaluate(request_).transmitted_bytes / 2.5
        )

    def test_composition_keeps_most_quality(self, request_, encoder):
        h2o = H2OBaseline(keep_fraction=0.45)
        composed = CacheGenOnCompressionBaseline(h2o, encoder).evaluate(request_)
        plain = h2o.evaluate(request_)
        assert composed.quality.value > plain.quality.value - 0.05

    def test_name_reflects_inner(self, request_, encoder):
        composed = CacheGenOnCompressionBaseline(LLMLinguaBaseline(), encoder)
        assert composed.name == "cachegen+llmlingua"


class TestIntrusiveBaselines:
    def test_gisting_tiny_but_lossy(self, request_):
        result = GistingBaseline(compression_ratio=16).evaluate(request_)
        assert result.transmitted_bytes < 0.1 * request_.reference_kv.full_nbytes
        assert result.quality.relative_quality < 0.95

    def test_gisting_more_compression_less_quality(self, request_):
        q = [
            GistingBaseline(compression_ratio=r).evaluate(request_).quality.value
            for r in (2, 8, 32)
        ]
        assert q == sorted(q, reverse=True)

    def test_gisting_invalid_ratio(self):
        with pytest.raises(ValueError):
            GistingBaseline(compression_ratio=0.5)

    def test_smaller_model_smaller_cache_lower_quality(self, request_):
        from repro.llm import LLAMA_3B, LLAMA_7B

        result = SmallerModelBaseline(num_bits=8).evaluate(request_)
        big = UniformQuantizationBaseline(8).evaluate(request_)
        # Size equals the smaller model's own 8-bit cache (which is smaller
        # than the Llama-7B-class model Figure 18a compares against).
        expected = LLAMA_3B.kv_cache_bytes(request_.num_tokens, 8)
        assert result.transmitted_bytes == pytest.approx(expected, rel=0.01)
        assert LLAMA_3B.kv_cache_bytes(1000, 8) < LLAMA_7B.kv_cache_bytes(1000, 8)
        assert result.quality.value < big.quality.value

    def test_smaller_model_explicit_base_quality(self, request_):
        result = SmallerModelBaseline(num_bits=8, base_quality=0.5).evaluate(request_)
        assert result.quality.value <= 0.5 + 1e-6


def _every_method(encoder) -> list:
    """Every method of ``Workbench.standard_methods()`` and every other baseline."""
    return [
        TextContextBaseline(),
        UniformQuantizationBaseline(8),
        CacheGenMethod(encoder),
        H2OBaseline(),
        ScissorhandsBaseline(),
        LLMLinguaBaseline(),
        GistingBaseline(),
        SmallerModelBaseline(),
        CacheGenOnCompressionBaseline(H2OBaseline(), encoder),
    ]


class TestLoadingDelay:
    def test_loading_delay_is_ttft_less_the_prompt_prefill(self, request_, encoder):
        """Every method's loading delay leaves out the same thing: the prompt prefill."""
        prompt_tokens = request_.record.prompt_tokens
        for method in _every_method(encoder):
            compute = (
                ComputeModel(method.small_model, request_.compute_model.gpu)
                if isinstance(method, SmallerModelBaseline)
                else request_.compute_model
            )
            result = method.evaluate(request_)
            assert result.ttft_s - result.loading_delay_s == pytest.approx(
                compute.prefill_delay(prompt_tokens), rel=1e-9
            ), method.name
            assert 0.0 < result.loading_delay_s < result.ttft_s, method.name

    def test_a_lone_load_never_queues(self, request_, encoder):
        for method in _every_method(encoder):
            assert method.evaluate(request_).breakdown.queueing_s == pytest.approx(
                0.0, abs=1e-12
            ), method.name


class TestConcurrencyAndSharing:
    """Figure 19's staging: n copies of a load, each on its own link, one GPU."""

    @staticmethod
    def mean_ttft(method, request_, n: int) -> float:
        simulator = ConcurrentLoadSimulator()
        for _ in range(n):
            method.stage(simulator, replace(request_, link=NetworkLink(ConstantTrace(gbps(3)))))
        timelines = simulator.run()
        assert len({id(simulator.channels[key].link) for key in simulator.channels}) == n
        return sum(timeline.ttft.total_s for timeline in timelines) / n

    def test_one_staged_load_is_the_lone_evaluation(self, request_, encoder):
        for method in (TextContextBaseline(), UniformQuantizationBaseline(8), CacheGenMethod(encoder)):
            assert self.mean_ttft(method, request_, 1) == method.evaluate(request_).ttft_s

    def test_concurrency_slows_every_method(self, request_, encoder):
        for method in _every_method(encoder):
            single = self.mean_ttft(method, request_, 1)
            loaded = self.mean_ttft(method, request_, 4)
            assert loaded > single, method.name
