"""Codec ablation: the contribution of each encoder idea (Figure 15).

Starting from the uniform-quantization strawman, the paper progressively adds
(1) arithmetic coding with per-(channel, layer) probability models, (2)
change-based (anchor/delta) encoding, and (3) layer-wise quantization, and
plots the size-quality point of each variant.  The encoder exposes each idea
as a configuration switch, so the ablation is a configuration sweep; the
caller supplies each variant's offline profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.config import CacheGenConfig
from ..core.decoder import CacheGenDecoder
from ..core.encoder import CacheGenEncoder, FittedCodec
from ..core.kv_cache import KVCache
from ..llm.quality import QualityModel

__all__ = ["AblationPoint", "codec_ablation", "ABLATION_VARIANTS"]

#: Ablation variants in the order Figure 15 presents them.
ABLATION_VARIANTS: dict[str, CacheGenConfig] = {
    "default-quant": CacheGenConfig(
        use_delta=False, use_layerwise_quant=False, use_arithmetic_coding=False
    ),
    "quant+ac": CacheGenConfig(use_delta=False, use_layerwise_quant=False),
    "quant+ac+change": CacheGenConfig(use_layerwise_quant=False),
    "cachegen": CacheGenConfig(),
}


@dataclass(frozen=True)
class AblationPoint:
    """Size-quality point of one ablation variant."""

    variant: str
    bits_per_element: float
    relative_size: float
    quality: float
    relative_quality: float


def codec_ablation(
    kv: KVCache,
    codecs: Mapping[str, FittedCodec],
    quality_model: QualityModel,
    task: str = "qa_accuracy",
    level: str = "medium",
) -> list[AblationPoint]:
    """Evaluate every ablation variant on one KV cache.

    Parameters
    ----------
    kv:
        The KV cache being encoded.
    codecs:
        Each variant's offline profile, by variant name, taken under its
        :data:`ABLATION_VARIANTS` configuration.
    quality_model:
        Quality surrogate for the evaluated task.
    task, level:
        Task name and encoding level.
    """
    points: list[AblationPoint] = []
    baseline_bpe: float | None = None
    for variant, config in ABLATION_VARIANTS.items():
        encoder = CacheGenEncoder(config, codec=codecs[variant])
        decoder = CacheGenDecoder(encoder)
        encoded = encoder.encode(kv, level)
        decoded = decoder.decode(encoded)
        distortion = kv.normalized_distortion_per_layer(decoded)
        quality = quality_model.score(task=task, layer_distortion=distortion)
        if baseline_bpe is None:
            baseline_bpe = encoded.bits_per_element
        points.append(
            AblationPoint(
                variant=variant,
                bits_per_element=encoded.bits_per_element,
                relative_size=encoded.bits_per_element / baseline_bpe,
                quality=quality.value,
                relative_quality=quality.relative_quality,
            )
        )
    return points
