"""The "default quantization" baseline: uniform per-tensor quantization.

The paper's main baseline applies the same quantization level (8, 4 or 3
bits) to every layer of the KV cache and ships the fixed-width tensors over
the network.  The tensors keep their shape, so no entropy coding or decoding
is involved; the receiver only rescales the integers, whose cost is
negligible.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.kv_cache import KVCache, normalized_distortion, squared_error_per_layer
from ..core.quantization import vectorwise_quantize
from ..llm.quality import GenerationQuality
from ..serving.concurrent.processes import LoadProcess, LoadStage, StaticLoad
from .base import ContextLoadingMethod, LoadRequest

__all__ = ["UniformQuantizationBaseline", "quantization_distortion", "quantized_bytes"]


def quantized_bytes(kv: KVCache, num_bits: int) -> float:
    """Bytes of ``kv`` quantized to ``num_bits``, extrapolated to the full model."""
    payload_bytes = kv.full_num_elements * num_bits / 8.0
    # Per-(layer, channel) fp16 scales, extrapolated to the full model.
    metadata_bytes = 2.0 * 2 * kv.full_layers * kv.full_channels
    return payload_bytes + metadata_bytes


def quantization_distortion(kv: KVCache, num_bits: int) -> np.ndarray:
    """Per-layer distortion of ``kv`` quantized to ``num_bits`` and rescaled."""
    squared = sum(
        squared_error_per_layer(tensor, vectorwise_quantize(tensor, num_bits).dequantize())
        for tensor in (kv.k, kv.v)
    )
    return normalized_distortion(
        squared, 2 * kv.num_tokens * kv.num_channels, kv.variance_per_layer()
    )


class UniformQuantizationBaseline(ContextLoadingMethod):
    """Uniform ``num_bits`` quantization of the whole KV cache.

    Parameters
    ----------
    num_bits:
        Quantization bit width applied to every layer (the paper uses 8, 4
        and 3).
    """

    def __init__(self, num_bits: int = 8) -> None:
        if not 2 <= num_bits <= 16:
            raise ValueError("num_bits must be between 2 and 16")
        self.num_bits = num_bits
        self.name = f"quant-{num_bits}bit"

    def load(self, request: LoadRequest) -> StaticLoad:
        num_bytes = quantized_bytes(request.reference_kv, self.num_bits)
        return self.then_prompt(request, LoadStage(config="quant", num_bytes=num_bytes))

    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        distortion = quantization_distortion(request.reference_kv, self.num_bits)
        quality = request.quality_model.score(task=request.task, layer_distortion=distortion)
        return quality, {"bits_per_element": self.num_bits}
