"""Tests for the GPU compute / latency model."""

from __future__ import annotations

import pytest

from repro.llm import A40, A100, ComputeModel, MISTRAL_7B, LLAMA_70B


class TestFlops:
    def test_prefill_superlinear(self, compute_model):
        """Prefill compute grows superlinearly with context length (§2.1)."""
        flops_4k = compute_model.prefill_flops(4_000)
        flops_8k = compute_model.prefill_flops(8_000)
        assert flops_8k > 2.0 * flops_4k

    def test_prefill_flops_match_figure14(self, compute_model):
        """Figure 14b: ~250 TFLOPs scale for a ~9.4K-token Mistral-7B prefill."""
        tflops = compute_model.prefill_flops(9_400) / 1e12
        assert 100 < tflops < 400

    def test_decode_flops_negligible_vs_prefill(self, compute_model):
        assert compute_model.decode_flops(9_400) < 0.05 * compute_model.prefill_flops(9_400)

    def test_zero_tokens(self, compute_model):
        assert compute_model.prefill_flops(0) == 0.0
        assert compute_model.decode_flops(0) == 0.0

    def test_negative_tokens_rejected(self, compute_model):
        with pytest.raises(ValueError):
            compute_model.prefill_flops(-1)


class TestDelays:
    def test_3k_prefill_around_two_seconds(self, compute_model):
        """Calibration anchor from the paper's introduction."""
        assert 1.0 < compute_model.prefill_delay(3_000) < 3.5

    def test_prefill_is_its_flops_at_the_effective_throughput(self, compute_model):
        assert compute_model.prefill_delay(5_000) == pytest.approx(
            compute_model.prefill_flops(5_000) / compute_model.gpu.effective_flops
        )

    def test_decode_much_faster_than_prefill(self, compute_model):
        assert compute_model.decode_delay(9_400) < 0.2 * compute_model.prefill_delay(9_400)

    def test_bigger_model_slower(self):
        small = ComputeModel(MISTRAL_7B)
        large = ComputeModel(LLAMA_70B)
        assert large.prefill_delay(4_000) > small.prefill_delay(4_000)

    def test_faster_gpu_faster_prefill(self):
        a40 = ComputeModel(MISTRAL_7B, A40)
        a100 = ComputeModel(MISTRAL_7B, A100)
        assert a100.prefill_delay(4_000) < a40.prefill_delay(4_000)

    def test_decode_delay_positive_and_growing(self, compute_model):
        assert 0 < compute_model.decode_delay(1_000) < compute_model.decode_delay(9_400)

    def test_encode_flops_grow_with_tokens(self, compute_model):
        assert 0 < compute_model.encode_flops(1_000) < compute_model.encode_flops(2_000)

    def test_encode_delay_small(self, compute_model):
        """Offline encode delay is sub-second-ish per context (Figure 14c)."""
        assert compute_model.encode_delay(9_400) < 1.0
