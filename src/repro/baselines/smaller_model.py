"""The "smaller model" baseline (Figure 18a).

Instead of compressing the big model's KV cache, one can serve a smaller LLM
whose prefill is faster and whose KV cache is smaller — at the cost of
intrinsically worse generation quality.  The baseline quantizes the smaller
model's KV cache at a configurable bit width, like the uniform baseline.
"""

from __future__ import annotations

from typing import Any

from ..llm.compute_model import ComputeModel
from ..llm.model_config import LLAMA_3B, ModelConfig
from ..llm.quality import GenerationQuality, QualityModel
from ..llm.synthetic_model import SyntheticLLM
from ..serving.concurrent.processes import LoadProcess, LoadStage, StaticLoad
from .base import ContextLoadingMethod, LoadRequest
from .uniform_quant import quantization_distortion

__all__ = ["SmallerModelBaseline"]


class SmallerModelBaseline(ContextLoadingMethod):
    """Replace the serving LLM with a smaller one and quantize its KV cache.

    Parameters
    ----------
    small_model:
        Configuration of the replacement model (default Llama-3B-class).
    num_bits:
        Quantization bit width for the smaller model's KV cache.
    base_quality:
        Lossless-cache quality of the *smaller* model on the evaluated task
        (intrinsically worse than the large model's).
    """

    def __init__(
        self,
        small_model: ModelConfig = LLAMA_3B,
        num_bits: int = 8,
        base_quality: float | None = None,
    ) -> None:
        if not 2 <= num_bits <= 16:
            raise ValueError("num_bits must be between 2 and 16")
        self.small_model = small_model
        self.num_bits = num_bits
        self.base_quality = base_quality
        self.name = f"smaller-model-{num_bits}bit"

    def load(self, request: LoadRequest) -> StaticLoad:
        num_bytes = self.small_model.kv_cache_bytes(request.num_tokens, self.num_bits)
        # The question is prefilled by the small model, on the same GPU.
        compute = ComputeModel(self.small_model, request.compute_model.gpu)
        return self.then_prompt(
            request, LoadStage(config="quant", num_bytes=num_bytes), compute
        )

    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        small_kv = SyntheticLLM(self.small_model).calculate_kv(
            request.record.context_id, request.num_tokens
        )
        quality = self._small_quality_model(request).score(
            task=request.task, layer_distortion=quantization_distortion(small_kv, self.num_bits)
        )
        return quality, {"small_model": self.small_model.name, "bits_per_element": self.num_bits}

    def _small_quality_model(self, request: LoadRequest) -> QualityModel:
        """Quality model anchored at the smaller model's base quality."""
        base_values = dict(request.quality_model.base_values)
        if self.base_quality is not None:
            base_values[request.task] = self.base_quality
        else:
            # The smaller model is intrinsically worse: degrade higher-is-better
            # metrics and inflate perplexity relative to the big model's base.
            if request.task == "perplexity":
                base_values[request.task] = base_values[request.task] * 1.6
            else:
                base_values[request.task] = base_values[request.task] * 0.72
        return QualityModel(
            num_layers=self.small_model.sim_layers,
            sensitivity_decay=request.quality_model.sensitivity_decay,
            base_values=base_values,
        )
