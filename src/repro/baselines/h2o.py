"""H2O: heavy-hitter-oracle KV cache compression (token dropping).

H2O keeps the tokens whose cumulative attention scores are highest (the
"heavy hitters") plus the most recent tokens, and drops the rest of the KV
cache.  It needs the query's attention scores, which are not available in the
offline compression stage; like the paper (§7.2) we evaluate an *idealized*
H2O that is allowed to use them.  The surviving KV cache keeps its tensor
shape, so for transmission it is quantized like the uniform baseline — and can
be further encoded by CacheGen (see
:class:`repro.baselines.composition.CacheGenOnCompressionBaseline`).
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import Any

from ..core.kv_cache import KVCache
from ..llm.attention import TokenSelection, select_heavy_hitters
from ..llm.quality import GenerationQuality
from ..serving.concurrent.processes import LoadProcess, LoadStage, StaticLoad
from .base import ContextLoadingMethod, LoadRequest
from .uniform_quant import quantization_distortion, quantized_bytes

__all__ = ["TokenDroppingBaseline", "H2OBaseline", "ScissorhandsBaseline"]


class TokenDroppingBaseline(ContextLoadingMethod):
    """Keep a subset of the context's tokens and quantize their KV uniformly.

    Subclasses decide which tokens survive (:meth:`select_tokens`); the
    surviving KV cache keeps its tensor shape and ships at ``num_bits``.

    Parameters
    ----------
    keep_fraction:
        Fraction of context tokens retained.
    num_bits:
        Quantization bit width applied to the surviving tokens' KV.
    """

    def __init__(self, keep_fraction: float, num_bits: int = 8) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if not 2 <= num_bits <= 16:
            raise ValueError("num_bits must be between 2 and 16")
        self.keep_fraction = keep_fraction
        self.num_bits = num_bits

    @abc.abstractmethod
    def select_tokens(self, request: LoadRequest) -> TokenSelection:
        """Choose which token positions survive."""

    def kept_cache(self, request: LoadRequest) -> tuple[KVCache, TokenSelection]:
        """The lossless KV cache of the surviving tokens, and their selection."""
        selection = self.select_tokens(request)
        kv, positions = request.reference_kv, selection.kept_positions
        return replace(kv, k=kv.k[:, positions, :], v=kv.v[:, positions, :]), selection

    def load(self, request: LoadRequest) -> StaticLoad:
        kept, _ = self.kept_cache(request)
        stage = LoadStage(config="quant", num_bytes=quantized_bytes(kept, self.num_bits))
        return self.then_prompt(request, stage)

    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        kept, selection = self.kept_cache(request)
        quality = request.quality_model.score(
            task=request.task,
            layer_distortion=quantization_distortion(kept, self.num_bits),
            token_keep_fraction=selection.keep_fraction,
            important_token_coverage=selection.attention_coverage,
        )
        return quality, {
            "kept_tokens": selection.num_kept,
            "keep_fraction": selection.keep_fraction,
            "attention_coverage": selection.attention_coverage,
        }


class H2OBaseline(TokenDroppingBaseline):
    """Heavy-hitter token dropping followed by uniform quantization.

    Parameters
    ----------
    keep_fraction:
        Fraction of context tokens retained (the paper's configuration keeps
        roughly 45% on LongChat, matching Table 1's 282 MB vs 622 MB).
    num_bits:
        Quantization bit width applied to the surviving tokens' KV.
    """

    name = "h2o"

    def __init__(self, keep_fraction: float = 0.45, num_bits: int = 8) -> None:
        super().__init__(keep_fraction, num_bits)

    def select_tokens(self, request: LoadRequest) -> TokenSelection:
        scores = request.llm.attention_scores(request.record.context_id, request.num_tokens)
        return select_heavy_hitters(scores, self.keep_fraction)


class ScissorhandsBaseline(H2OBaseline):
    """Scissorhands: persistence-of-importance token dropping.

    Behaviourally equivalent to the idealized H2O policy for our purposes
    (keep the most-attended tokens); it appears separately in the Figure 18
    comparison, typically at more aggressive keep fractions.
    """

    name = "scissorhands"

    def __init__(self, keep_fraction: float = 0.3, num_bits: int = 8) -> None:
        super().__init__(keep_fraction=keep_fraction, num_bits=num_bits)
