"""Analytical compute / latency model of the GPU serving substrate.

The paper's testbed is an NVIDIA A40 server; TTFT measurements combine the
network transfer of the context (text or KV bitstream), the decode
(decompression) of KV bitstreams, and the prefill computation for whatever
part of the context arrives as text, plus the prefill of the user prompt
itself.  This module provides the FLOPs and delay model for the compute side.

Calibration anchors:

* The paper's introduction cites ~2 seconds of prefill for a 3K-token context
  (a 7B-class model on an A40).
* Figure 14b reports ~250 TFLOPs of prefill compute for a ~9.4K-token LongChat
  context on Mistral-7B, and negligible compute for CacheGen's decode.

Prefill FLOPs follow the standard estimate ``2 * P * T`` for the MLP/attention
projections plus the quadratic attention term; delay divides FLOPs by an
effective throughput (peak throughput x utilisation).  Every delay is that of
one request alone on the GPU; contention is the event engine's business.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model_config import ModelConfig

__all__ = ["GPUSpec", "ComputeModel", "A40", "A100"]


@dataclass(frozen=True)
class GPUSpec:
    """A GPU's compute capability for the latency model.

    Parameters
    ----------
    name:
        GPU model name.
    peak_tflops:
        Peak dense fp16 throughput in TFLOPS.
    prefill_utilization:
        Fraction of peak throughput achieved during prefill (memory- and
        kernel-efficiency losses).  Calibrated so a 3K-token prefill of a
        7B-class model takes about 2 seconds on an A40.
    """

    name: str
    peak_tflops: float
    prefill_utilization: float = 0.18

    @property
    def effective_flops(self) -> float:
        """Sustained prefill throughput in FLOP/s."""
        return self.peak_tflops * 1e12 * self.prefill_utilization


A40 = GPUSpec(name="A40", peak_tflops=150.0, prefill_utilization=0.18)
A100 = GPUSpec(name="A100", peak_tflops=312.0, prefill_utilization=0.22)


class ComputeModel:
    """FLOPs and delay model for prefill, decode, and CacheGen's codec.

    Parameters
    ----------
    model:
        The LLM configuration being served.
    gpu:
        GPU specification; defaults to the paper's A40.

    Example
    -------
    >>> from repro.llm.model_config import get_model_config
    >>> compute = ComputeModel(get_model_config("mistral-7b"))
    >>> compute.prefill_delay(num_tokens=9_600)  # seconds  # doctest: +SKIP
    """

    #: FLOPs spent by CacheGen's GPU arithmetic decoder per KV element.  The
    #: paper reports the decode compute is negligible next to prefill.
    DECODE_FLOPS_PER_ELEMENT = 8.0
    #: FLOPs spent by the encoder per KV element (offline path).
    ENCODE_FLOPS_PER_ELEMENT = 12.0
    #: Effective throughput multiplier of the codec kernels relative to
    #: prefill (they are bandwidth-bound, simple kernels).
    CODEC_UTILIZATION = 0.35

    def __init__(self, model: ModelConfig, gpu: GPUSpec = A40) -> None:
        self.model = model
        self.gpu = gpu

    # ------------------------------------------------------------------ FLOPs
    def prefill_flops(self, num_tokens: int) -> float:
        """FLOPs to prefill ``num_tokens`` of context (or prompt)."""
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        cfg = self.model
        linear = 2.0 * cfg.num_parameters * num_tokens
        attention = 4.0 * cfg.num_layers * cfg.hidden_size * float(num_tokens) ** 2
        return linear + attention

    def decode_flops(self, num_tokens: int) -> float:
        """FLOPs for CacheGen's GPU bitstream decoder over ``num_tokens``."""
        elements = self.model.kv_elements_per_token * max(num_tokens, 0)
        return self.DECODE_FLOPS_PER_ELEMENT * elements

    def encode_flops(self, num_tokens: int) -> float:
        """FLOPs for CacheGen's offline encoder over ``num_tokens``."""
        elements = self.model.kv_elements_per_token * max(num_tokens, 0)
        return self.ENCODE_FLOPS_PER_ELEMENT * elements

    # ------------------------------------------------------------------ delays
    def prefill_delay(self, num_tokens: int) -> float:
        """Seconds to prefill ``num_tokens`` alone on the whole GPU.

        Concurrent requests do not split this: their prefills queue on the
        GPU of the event engine (:mod:`repro.serving.concurrent`), so sharing
        shows up as queueing delay, not as a longer prefill.
        """
        return self.prefill_flops(num_tokens) / self.gpu.effective_flops

    def decode_delay(self, num_tokens: int) -> float:
        """Seconds for the GPU arithmetic decoder to decode ``num_tokens``."""
        throughput = self.gpu.peak_tflops * 1e12 * self.CODEC_UTILIZATION
        return self.decode_flops(num_tokens) / throughput

    def encode_delay(self, num_tokens: int) -> float:
        """Seconds for the offline encoder to encode ``num_tokens``."""
        throughput = self.gpu.peak_tflops * 1e12 * self.CODEC_UTILIZATION
        return self.encode_flops(num_tokens) / throughput
