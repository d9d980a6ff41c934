"""Configuration objects for the CacheGen codec and streamer.

The paper's default settings (§5.2, §5.3, §C.2):

* token groups of 10 tokens share one anchor token,
* context chunks of 1.5K tokens are the streaming unit,
* layers are split into three equal groups whose delta quantization bins are
  0.5 / 1.0 / 1.5 (growing with depth),
* anchor tokens are kept at 8-bit precision,
* each chunk is encoded at several *encoding levels* so the streamer can adapt
  to bandwidth, with a text (recompute) fallback.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import get_args

from .probability_model import Grouping
from .quantization import SYMBOL_CLIP

__all__ = ["EncodingLevel", "CacheGenConfig", "DEFAULT_LEVELS"]

#: The widest anchor quantization whose symbols, up to ``2**(bits-1) - 1`` in
#: magnitude, the ±``SYMBOL_CLIP`` probability alphabet can code: 9 bits.
_MAX_ANCHOR_BITS = SYMBOL_CLIP.bit_length() + 1


@dataclass(frozen=True)
class EncodingLevel:
    """One quantization level of the CacheGen encoder.

    Attributes
    ----------
    name:
        Human readable level name (``"high"`` is the least lossy).
    delta_bins:
        Quantization bin sizes for the delta tensors of each layer group,
        earliest group first.  Larger bins mean coarser quantization.
    anchor_bits:
        Bit width of the vectorwise quantization applied to anchor tokens,
        2 to 9: wider symbols would not fit the entropy coder's alphabet.

    Example
    -------
    >>> level = EncodingLevel("high", delta_bins=(0.35, 0.7, 1.05), anchor_bits=8)
    >>> level.name
    'high'
    """

    name: str
    delta_bins: tuple[float, ...]
    anchor_bits: int = 8

    def __post_init__(self) -> None:
        if not self.delta_bins or any(b <= 0 for b in self.delta_bins):
            raise ValueError("delta_bins must be a non-empty tuple of positive sizes")
        if not 2 <= self.anchor_bits <= _MAX_ANCHOR_BITS:
            raise ValueError(
                f"anchor_bits must be between 2 and {_MAX_ANCHOR_BITS}: anchor symbols are "
                f"entropy-coded over the alphabet [-{SYMBOL_CLIP}, {SYMBOL_CLIP}]"
            )

#: Encoding levels available to the streamer, highest quality first.  Level
#: "medium" is the paper's default (bins 0.5 / 1.0 / 1.5).
DEFAULT_LEVELS: tuple[EncodingLevel, ...] = (
    EncodingLevel(name="high", delta_bins=(0.35, 0.7, 1.05), anchor_bits=8),
    EncodingLevel(name="medium", delta_bins=(0.5, 1.0, 1.5), anchor_bits=8),
    EncodingLevel(name="low", delta_bins=(1.0, 2.0, 3.0), anchor_bits=8),
    EncodingLevel(name="lowest", delta_bins=(2.0, 4.0, 6.0), anchor_bits=6),
)


@dataclass(frozen=True)
class CacheGenConfig:
    """Configuration of the CacheGen encoder, decoder and streamer.

    The ablation switches (``use_delta``, ``use_layerwise_quant``,
    ``probability_grouping``, ``use_arithmetic_coding``) exist so Figure 15 can
    be generated by configuration alone; the defaults correspond to the full
    CacheGen design.

    Example
    -------
    >>> config = CacheGenConfig(group_size=10, chunk_tokens=1500)
    >>> [level.name for level in config.levels]
    ['high', 'medium', 'low', 'lowest']
    """

    #: Tokens per anchor group (Figure 6).
    group_size: int = 10
    #: Tokens per streaming context chunk (§5.3).
    chunk_tokens: int = 1500
    #: Available encoding levels, highest quality first.
    levels: tuple[EncodingLevel, ...] = DEFAULT_LEVELS
    #: Index into ``levels`` used when no adaptation signal is available.
    default_level_index: int = 1
    #: Encode deltas against anchor tokens (Insight 1).  When False the raw
    #: values are bin-quantized directly.
    use_delta: bool = True
    #: Use per-layer-group bin sizes (Insight 2).  When False all layers use
    #: the mean bin size of the level.
    use_layerwise_quant: bool = True
    #: Grouping strategy of the arithmetic coder's probability model
    #: (Insight 3).  CacheGen uses "channel_layer"; "global" is the strawman.
    probability_grouping: str = "channel_layer"
    #: Whether the arithmetic coder is applied at all; when False the payload
    #: is counted at its fixed-width quantized size (the quantization-only
    #: ablation point).
    use_arithmetic_coding: bool = True
    #: Produce and parse real bitstreams with the lane-parallel arithmetic
    #: coder instead of carrying symbols at their cross-entropy size (the
    #: stored sizes every figure uses; see ``entropy_codec``).
    exact_entropy_coding: bool = False
    #: Average UTF-8 bytes per token when a chunk is sent as text.
    text_bytes_per_token: float = 4.5

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if self.chunk_tokens <= 0:
            raise ValueError("chunk_tokens must be positive")
        if not self.levels:
            raise ValueError("at least one encoding level is required")
        if not 0 <= self.default_level_index < len(self.levels):
            raise ValueError("default_level_index out of range")
        names = [level.name for level in self.levels]
        if len(set(names)) != len(names):
            raise ValueError("encoding level names must be unique")
        if self.probability_grouping not in get_args(Grouping):
            raise ValueError(
                f"unknown probability_grouping {self.probability_grouping!r}; "
                f"expected one of {get_args(Grouping)}"
            )

    # ------------------------------------------------------------------ lookup
    @property
    def default_level(self) -> EncodingLevel:
        return self.levels[self.default_level_index]

    def level_index(self, level: "EncodingLevel | str | int") -> int:
        """Resolve a level reference (object, name or index) to its index.

        An index may be any integer type (``numpy.int64`` included) but not a
        ``bool``: ``True`` names no level (``TypeError``).
        """
        if isinstance(level, bool):
            raise TypeError("a level is an EncodingLevel, a name or an index, not a bool")
        if isinstance(level, numbers.Integral):
            index = int(level)
            if not 0 <= index < len(self.levels):
                raise IndexError(f"level index {index} out of range")
            return index
        if isinstance(level, str):
            return [l.name for l in self.levels].index(level)
        return list(self.levels).index(level)

    def replace(self, **changes: object) -> "CacheGenConfig":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)  # type: ignore[arg-type]
