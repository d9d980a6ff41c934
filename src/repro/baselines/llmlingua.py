"""LLMLingua / LongLLMLingua: query-agnostic prompt (text) compression.

LLMLingua drops tokens from the *text* of the context using a small language
model, without seeing the eventual query.  The LLM then prefills the shortened
context, producing a proportionally smaller KV cache; for transmission the
paper quantizes that cache like the uniform baseline.  Because the pruning is
query-agnostic it covers less of the attention mass than heavy-hitter
selection at the same keep fraction, costing more quality (Table 1: 0.94 vs
H2O's 0.97).
"""

from __future__ import annotations

import zlib

from ..llm.attention import TokenSelection, select_uniform
from .base import LoadRequest
from .h2o import TokenDroppingBaseline

__all__ = ["LLMLinguaBaseline"]


class LLMLinguaBaseline(TokenDroppingBaseline):
    """Query-agnostic text pruning followed by uniform quantization.

    Parameters
    ----------
    keep_fraction:
        Fraction of context tokens the compressor keeps (the paper's setting
        corresponds to roughly 79% on LongChat: 492 MB vs 622 MB in Table 1).
    num_bits:
        Quantization bit width applied to the shortened context's KV cache.
    """

    name = "llmlingua"

    def __init__(self, keep_fraction: float = 0.79, num_bits: int = 8) -> None:
        super().__init__(keep_fraction, num_bits)

    def select_tokens(self, request: LoadRequest) -> TokenSelection:
        """Pick the surviving token positions (query-agnostic)."""
        scores = request.llm.attention_scores(request.record.context_id, request.num_tokens)
        seed = zlib.crc32(request.record.context_id.encode("utf-8"))
        return select_uniform(scores, self.keep_fraction, seed=seed)
