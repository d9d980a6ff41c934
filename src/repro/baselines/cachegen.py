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

from ..core.encoder import CacheGenEncoder
from ..llm.quality import GenerationQuality
from ..serving.concurrent.processes import ChunkedKVLoad, distortion
from ..storage.kv_store import StoredContext
from ..streaming.adaptation import choose_policy
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
        self.adaptive = adaptive
        self.fixed_level = fixed_level or encoder.config.default_level.name
        self.name = name or ("cachegen" if adaptive else "cachegen-static")
        #: ``(model, context, tokens) ->`` the record a serving store would keep.
        self._records: OrderedDict[tuple[str, str, int], StoredContext] = OrderedDict()

    # -------------------------------------------------------------------- load
    def load(self, request: LoadRequest) -> ChunkedKVLoad:
        return ChunkedKVLoad(
            self._stored(request).chunks,
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
        quality = request.quality_model.score(
            task=request.task,
            layer_distortion=distortion(
                process.prepared, process.configs, self._stored(request).variance
            ),
        )
        return quality, {
            "configs": process.configs,
            "decode_flops": request.compute_model.decode_flops(request.num_tokens),
        }

    # ------------------------------------------------------------------ pieces
    def _stored(self, request: LoadRequest) -> StoredContext:
        """The context chunked and encoded at every level, with its error statistics."""
        key = (request.reference_kv.model_name, request.record.context_id, request.num_tokens)
        if key in self._records:
            self._records.move_to_end(key)
            return self._records[key]
        stored = StoredContext.encode(request.record.context_id, request.reference_kv, self.encoder)
        self._records[key] = stored
        while len(self._records) > self._CACHE_SIZE:
            self._records.popitem(last=False)
        return stored

    # --------------------------------------------------------------- accessors
