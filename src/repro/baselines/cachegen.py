"""CacheGen as a context-loading method.

This wraps the codec (:mod:`repro.core`) and the chunked, adaptive KV load
the serving path streams (:class:`~repro.serving.concurrent.processes.ChunkedKVLoad`)
behind the same :class:`ContextLoadingMethod` interface as the baselines, so
every experiment compares methods uniformly.  Offline work (chunking and
encoding at every level) is not part of TTFT; the evaluated delay covers each
chunk's transfer and decode (or text re-prefill), and the prefill of the
user's new question.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..core.decoder import CacheGenDecoder
from ..core.encoder import CacheGenEncoder
from ..llm.quality import GenerationQuality
from ..serving.concurrent.processes import ChunkedKVLoad
from ..streaming.adaptation import choose_policy
from ..streaming.chunking import PreparedChunk, prepare_chunks
from .base import ContextLoadingMethod, LoadRequest

__all__ = ["CacheGenMethod"]


class CacheGenMethod(ContextLoadingMethod):
    """The full CacheGen pipeline: offline encoding + adaptive streaming.

    Parameters
    ----------
    encoder:
        Fitted :class:`CacheGenEncoder` for the serving model.
    adaptive:
        Use the SLO-aware adapter of §5.3.  When False (the "CacheGen w/o
        adaptation" baseline of Figure 13) every chunk is streamed at
        ``fixed_level``.
    fixed_level:
        Level used when not adapting (defaults to the paper's default level).
    name:
        Override the method name shown in result tables.
    """

    #: Number of recently prepared contexts kept in memory.  Bandwidth sweeps
    #: re-evaluate the same context many times; caching avoids re-encoding it.
    _CACHE_SIZE = 2

    def __init__(
        self,
        encoder: CacheGenEncoder,
        adaptive: bool = True,
        fixed_level: str | None = None,
        name: str | None = None,
    ) -> None:
        self.encoder = encoder
        self.decoder = CacheGenDecoder(encoder)
        self.adaptive = adaptive
        self.fixed_level = fixed_level or encoder.config.default_level.name
        self.name = name or ("cachegen" if adaptive else "cachegen-static")
        self._prepared_cache: OrderedDict[tuple[str, str, int], list[PreparedChunk]] = OrderedDict()

    # -------------------------------------------------------------------- load
    def load(self, request: LoadRequest) -> ChunkedKVLoad:
        return ChunkedKVLoad(
            self._prepared_chunks(request),
            policy=choose_policy(
                [level.name for level in self.encoder.config.levels],
                request.slo_s,
                self.fixed_level,
                adaptive=self.adaptive,
            ),
            compute=request.compute_model,
            slo_s=request.slo_s,
            prompt_tokens=request.record.prompt_tokens,
        )

    def outcome(
        self, request: LoadRequest, process: ChunkedKVLoad
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        distortion = request.reference_kv.normalized_distortion_per_layer(
            process.materialise(self.decoder)
        )
        quality = request.quality_model.score(task=request.task, layer_distortion=distortion)
        return quality, {
            "configs": process.configs,
            "decode_flops": request.compute_model.decode_flops(request.num_tokens),
        }

    # ------------------------------------------------------------------ pieces
    def _prepared_chunks(self, request: LoadRequest) -> list[PreparedChunk]:
        key = (
            request.reference_kv.model_name,
            request.record.context_id,
            request.num_tokens,
        )
        if key in self._prepared_cache:
            self._prepared_cache.move_to_end(key)
            return self._prepared_cache[key]
        prepared = prepare_chunks(request.reference_kv, self.encoder)
        self._prepared_cache[key] = prepared
        while len(self._prepared_cache) > self._CACHE_SIZE:
            self._prepared_cache.popitem(last=False)
        return prepared

    # --------------------------------------------------------------- accessors
    def default_level_bytes(self, request: LoadRequest) -> float:
        """Compressed bytes of the context at the default encoding level."""
        prepared = self._prepared_chunks(request)
        return sum(chunk.bytes_for_level(self.fixed_level) for chunk in prepared)
