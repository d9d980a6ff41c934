"""CacheGen composed with context-compression baselines (Figure 10, Table 1).

H2O and LLMLingua prune tokens but keep the surviving KV cache as
floating-point tensors, so CacheGen can encode what remains into bitstreams
and shrink it a further 3-4x.  This module implements that composition: the
inner method selects the surviving tokens, then the CacheGen encoder encodes
the surviving KV cache at its default level.
"""

from __future__ import annotations

from typing import Any

from ..core.decoder import CacheGenDecoder
from ..core.encoder import CacheGenEncoder, EncodedKV
from ..core.kv_cache import KVCache
from ..llm.attention import TokenSelection
from ..llm.quality import GenerationQuality
from ..serving.concurrent.processes import LoadProcess, LoadStage, StaticLoad
from ..serving.concurrent.resources import DECODE
from .base import ContextLoadingMethod, LoadRequest
from .h2o import TokenDroppingBaseline

__all__ = ["CacheGenOnCompressionBaseline"]


class CacheGenOnCompressionBaseline(ContextLoadingMethod):
    """Apply CacheGen's encoder on top of a token-dropping baseline.

    Parameters
    ----------
    inner:
        The context-compression baseline (H2O or LLMLingua) whose surviving
        tokens are encoded.
    encoder:
        Fitted CacheGen encoder for the serving model.
    level:
        Encoding level used for the surviving KV cache.
    """

    def __init__(
        self,
        inner: TokenDroppingBaseline,
        encoder: CacheGenEncoder,
        level: str | None = None,
    ) -> None:
        self.inner = inner
        self.encoder = encoder
        self.decoder = CacheGenDecoder(encoder)
        self.level = level or encoder.config.default_level.name
        self.name = f"cachegen+{inner.name}"
        self._last: tuple[LoadRequest, KVCache, TokenSelection, EncodedKV] | None = None

    def _encoded(self, request: LoadRequest) -> tuple[KVCache, TokenSelection, EncodedKV]:
        """The inner method's surviving KV cache, its selection and its encoding.

        Memoized for the last request: :meth:`load` sizes the transfer from
        the encoding and :meth:`outcome` decodes it.
        """
        if self._last is None or self._last[0] is not request:
            kept, selection = self.inner.kept_cache(request)
            self._last = (request, kept, selection, self.encoder.encode(kept, self.level))
        return self._last[1:]

    def load(self, request: LoadRequest) -> StaticLoad:
        kept, _, encoded = self._encoded(request)
        stage = LoadStage(
            config=self.level,
            num_bytes=encoded.compressed_bytes,
            gpu_kind=DECODE,
            gpu_s=request.compute_model.decode_delay(kept.num_tokens),
        )
        return self.then_prompt(request, stage)

    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        kept, selection, encoded = self._encoded(request)
        distortion = kept.normalized_distortion_per_layer(self.decoder.decode(encoded))
        quality = request.quality_model.score(
            task=request.task,
            layer_distortion=distortion,
            token_keep_fraction=selection.keep_fraction,
            important_token_coverage=selection.attention_coverage,
        )
        return quality, {
            "kept_tokens": selection.num_kept,
            "bits_per_element": encoded.bits_per_element,
            "inner_method": self.inner.name,
        }
