"""Gisting: compressing contexts into a few learned "gist" tokens (Figure 18c).

Gisting retrains the LLM's attention so that an arbitrarily long context can
be condensed into a handful of gist tokens whose KV cache stands in for the
whole context.  The transmitted KV cache is therefore tiny, but quality drops
as the compression ratio grows, and the method requires model retraining
(unlike CacheGen).  The public pre-trained gisting model only accepts up to
512 tokens, which is why the paper evaluates it on a short-context QA dataset
(PIQA); the same applies here.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..llm.quality import GenerationQuality
from ..serving.concurrent.processes import LoadProcess, LoadStage, StaticLoad
from .base import ContextLoadingMethod, LoadRequest

__all__ = ["GistingBaseline"]


class GistingBaseline(ContextLoadingMethod):
    """Context condensed into ``num_tokens / compression_ratio`` gist tokens.

    Parameters
    ----------
    compression_ratio:
        How many context tokens are folded into one gist token.
    retrain_quality_factor:
        Multiplicative quality penalty for running the retrained (gist)
        attention instead of the original model.
    """

    name = "gisting"

    def __init__(self, compression_ratio: float = 8.0, retrain_quality_factor: float = 0.97) -> None:
        if compression_ratio < 1.0:
            raise ValueError("compression_ratio must be >= 1")
        if not 0.0 < retrain_quality_factor <= 1.0:
            raise ValueError("retrain_quality_factor must be in (0, 1]")
        self.compression_ratio = compression_ratio
        self.retrain_quality_factor = retrain_quality_factor

    def gist_tokens(self, request: LoadRequest) -> int:
        """How many gist tokens stand in for the context."""
        return max(int(np.ceil(request.num_tokens / self.compression_ratio)), 1)

    def load(self, request: LoadRequest) -> StaticLoad:
        # Gist KV stays in fp16 tensor form.
        num_bytes = request.llm.config.kv_elements_per_token * self.gist_tokens(request) * 2.0
        return self.then_prompt(request, LoadStage(config="gist", num_bytes=num_bytes))

    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        gist_tokens = self.gist_tokens(request)
        keep_fraction = min(gist_tokens / request.num_tokens, 1.0)
        coverage = float(min(1.0, (1.0 / self.compression_ratio) ** 0.25))
        quality = request.quality_model.score(
            task=request.task,
            layer_distortion=np.zeros(request.reference_kv.num_layers),
            token_keep_fraction=keep_fraction,
            important_token_coverage=coverage * self.retrain_quality_factor,
        )
        return quality, {"gist_tokens": gist_tokens, "compression_ratio": self.compression_ratio}
