"""Entropy measurements over KV caches (Insight 3 / Figure 5).

The paper quantifies how much each grouping strategy (by token position, by
channel, by layer, or by channel-and-layer) lowers the entropy of the
quantized KV values.  These helpers quantize a KV tensor the same way the
codec's front end does and compute the per-grouping entropy in bits per
element, which is exactly what Figure 5 plots.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.probability_model import Grouping, SymbolProbabilityModel
from ..core.quantization import bin_quantize

__all__ = ["grouped_entropy", "grouping_entropy_comparison"]

_DEFAULT_GROUPINGS: tuple[Grouping, ...] = ("global", "token", "channel", "layer", "channel_layer")


def grouped_entropy(
    tensor: np.ndarray,
    grouping: Grouping,
    quantization_bin: float = 0.5,
) -> float:
    """Entropy (bits/element) of a KV tensor's quantized values under a grouping.

    The tensor is quantized with a uniform bin (relative to the per-layer
    standard deviation, like the codec front end) and the entropy is the
    average over groups of each group's empirical symbol entropy — the Figure
    5 measurement.
    """
    quantized = bin_quantize(np.asarray(tensor, dtype=np.float32), quantization_bin)
    model = SymbolProbabilityModel.fit(quantized.symbols, grouping=grouping, smoothing=1e-6)
    return model.entropy_bits_per_symbol()


def grouping_entropy_comparison(
    tensor: np.ndarray,
    groupings: Sequence[Grouping] = _DEFAULT_GROUPINGS,
    quantization_bin: float = 0.5,
) -> Mapping[str, float]:
    """Entropy per grouping strategy, keyed by grouping name."""
    return {
        grouping: grouped_entropy(tensor, grouping, quantization_bin) for grouping in groupings
    }
