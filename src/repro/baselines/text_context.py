"""The "text context" baseline: ship the text, recompute the KV cache.

This is the design that minimises bytes on the wire at the cost of the full
prefill computation (Figure 2a).  The paper runs it on vLLM with xFormers
kernels; here the prefill delay comes from the calibrated
:class:`~repro.llm.compute_model.ComputeModel`.  Because nothing lossy happens
to the context, generation quality equals the lossless baseline.
"""

from __future__ import annotations

from typing import Any

from ..llm.quality import GenerationQuality
from ..serving.concurrent.processes import LoadProcess, StaticLoad
from .base import ContextLoadingMethod, LoadRequest

__all__ = ["TextContextBaseline"]


class TextContextBaseline(ContextLoadingMethod):
    """Fetch the context as text and prefill it on the GPU.

    Parameters
    ----------
    bytes_per_token:
        Average UTF-8 bytes per token of the context text.
    """

    name = "text"

    def __init__(self, bytes_per_token: float = 4.5) -> None:
        if bytes_per_token <= 0:
            raise ValueError("bytes_per_token must be positive")
        self.bytes_per_token = bytes_per_token

    def load(self, request: LoadRequest) -> StaticLoad:
        return StaticLoad.text_load(
            request.num_tokens,
            request.num_tokens * self.bytes_per_token,
            request.compute_model,
            prompt_tokens=request.record.prompt_tokens,
        )

    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        return self.lossless_quality(request), {
            "prefill_flops": request.compute_model.prefill_flops(request.num_tokens)
        }
