"""CacheGen composed with context-compression baselines (Figure 10, Table 1).

H2O and LLMLingua prune tokens but keep the surviving KV cache as
floating-point tensors, so CacheGen can encode what remains into bitstreams
and shrink it a further 3-4x.  This module implements that composition: the
inner method selects the surviving tokens, then the CacheGen encoder encodes
the surviving KV cache at its default level.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.encoder import CacheGenEncoder, EncodedKV
from ..core.kv_cache import normalized_distortion
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
        self.level = level or encoder.config.default_level.name
        self.name = f"cachegen+{inner.name}"
        self._last: tuple[LoadRequest, TokenSelection, EncodedKV, np.ndarray] | None = None

    def _encoded(self, request: LoadRequest) -> tuple[TokenSelection, EncodedKV, np.ndarray]:
        """The inner method's selection, its survivors' encoding and that encoding's distortion.

        The distortion comes from the encoder's error statistics, as a stored
        chunk's does.  Memoized for the last request: :meth:`load` sizes the
        transfer from the encoding and :meth:`outcome` scores it.
        """
        if self._last is None or self._last[0] is not request:
            kept, selection = self.inner.kept_cache(request)
            encodings, errors = self.encoder.encode_with_errors(kept)
            variance = kept.variance_per_layer()
            elements = 2 * kept.num_tokens * kept.num_channels
            distortion = normalized_distortion(errors[self.level], elements, variance)
            self._last = (request, selection, encodings[self.level], distortion)
        return self._last[1:]

    def load(self, request: LoadRequest) -> StaticLoad:
        selection, encoded, _ = self._encoded(request)
        stage = LoadStage(
            config=self.level,
            num_bytes=encoded.compressed_bytes,
            gpu_kind=DECODE,
            gpu_s=request.compute_model.decode_delay(selection.num_kept),
        )
        return self.then_prompt(request, stage)

    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        selection, encoded, distortion = self._encoded(request)
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
