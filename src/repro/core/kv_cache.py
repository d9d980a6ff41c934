"""KV cache data model.

The KV cache produced by a transformer prefill is, per layer, a key tensor and
a value tensor of shape ``(num_tokens, num_channels)`` where ``num_channels``
is ``num_kv_heads * head_dim``.  CacheGen treats the whole cache as a pair of
three-dimensional tensors indexed by ``(layer, token, channel)``.

This module defines :class:`KVCache`, the in-memory representation used
throughout the reproduction, together with the byte-accounting helpers that
translate between the *simulation-scale* tensors we actually materialise and
the *full-model* sizes the paper reports (see ``docs/ARCHITECTURE.md``, "Codec").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = ["KVCache"]

#: Bytes per element of an uncompressed KV cache.  The paper (and common
#: serving stacks) keep KV caches in fp16, i.e. two bytes per element.
FP16_BYTES_PER_ELEMENT = 2


@dataclass
class KVCache:
    """A KV cache as a pair of ``(layers, tokens, channels)`` tensors.

    Parameters
    ----------
    k, v:
        Key and value tensors.  Both must share the same shape
        ``(num_layers, num_tokens, num_channels)`` and be floating point.
    model_name:
        Optional name of the model that produced this cache.  Carried along so
        that codecs can look up full-model dimensions for size accounting.
    full_layers, full_channels:
        Dimensions of the *full* model.  When the cache was generated at
        simulation scale (fewer layers/channels than the real model), these
        record the real dimensions so compressed sizes can be extrapolated.
        They default to the simulated dimensions.

    Example
    -------
    >>> from repro.llm import SyntheticLLM
    >>> kv = SyntheticLLM("mistral-7b").calculate_kv("ctx", num_tokens=2_000)
    >>> kv.shape  # (layers, tokens, channels)
    (32, 2000, 32)
    >>> [chunk.num_tokens for chunk in kv.split_tokens(1_500)]
    [1500, 500]
    """

    k: np.ndarray
    v: np.ndarray
    model_name: str = "unknown"
    full_layers: int = field(default=0)
    full_channels: int = field(default=0)

    def __post_init__(self) -> None:
        self.k = np.asarray(self.k, dtype=np.float32)
        self.v = np.asarray(self.v, dtype=np.float32)
        if self.k.shape != self.v.shape:
            raise ValueError(
                f"K and V must have identical shapes, got {self.k.shape} vs {self.v.shape}"
            )
        if self.k.ndim != 3:
            raise ValueError(f"KV tensors must be 3-D (layers, tokens, channels), got {self.k.ndim}-D")
        if self.full_layers <= 0:
            self.full_layers = self.num_layers
        if self.full_channels <= 0:
            self.full_channels = self.num_channels

    # ------------------------------------------------------------------ shape
    @property
    def num_layers(self) -> int:
        """Number of (simulated) transformer layers in the cache."""
        return self.k.shape[0]

    @property
    def num_tokens(self) -> int:
        """Number of context tokens the cache covers."""
        return self.k.shape[1]

    @property
    def num_channels(self) -> int:
        """Number of (simulated) channels, i.e. ``kv_heads * head_dim``."""
        return self.k.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.k.shape

    # ------------------------------------------------------------------ sizes
    @property
    def num_elements(self) -> int:
        """Total number of floating point elements (K and V together)."""
        return 2 * self.k.size

    @property
    def full_num_elements(self) -> int:
        """Element count of the equivalent full-model KV cache."""
        return 2 * self.full_layers * self.num_tokens * self.full_channels

    @property
    def nbytes(self) -> int:
        """Uncompressed fp16 size of the *simulated* cache in bytes."""
        return self.num_elements * FP16_BYTES_PER_ELEMENT

    @property
    def full_nbytes(self) -> int:
        """Uncompressed fp16 size of the *full-model* cache in bytes."""
        return self.full_num_elements * FP16_BYTES_PER_ELEMENT

    @property
    def scale_factor(self) -> float:
        """Ratio of full-model elements to simulated elements."""
        return self.full_num_elements / self.num_elements

    # -------------------------------------------------------------- operations
    def slice_tokens(self, start: int, stop: int) -> "KVCache":
        """Return a view-like cache covering tokens ``[start, stop)``."""
        if not 0 <= start <= stop <= self.num_tokens:
            raise IndexError(
                f"token slice [{start}, {stop}) out of range for {self.num_tokens} tokens"
            )
        return KVCache(
            k=self.k[:, start:stop, :],
            v=self.v[:, start:stop, :],
            model_name=self.model_name,
            full_layers=self.full_layers,
            full_channels=self.full_channels,
        )

    def split_tokens(self, chunk_tokens: int) -> list["KVCache"]:
        """Split along the token dimension into chunks of ``chunk_tokens``.

        The final chunk may be shorter.  ``chunk_tokens`` must be positive.
        """
        if chunk_tokens <= 0:
            raise ValueError("chunk_tokens must be positive")
        chunks = []
        for start in range(0, self.num_tokens, chunk_tokens):
            chunks.append(self.slice_tokens(start, min(start + chunk_tokens, self.num_tokens)))
        return chunks

    def iter_token_groups(self, group_size: int) -> Iterator["KVCache"]:
        """Iterate over token groups of ``group_size`` (anchor-group granularity)."""
        yield from self.split_tokens(group_size)

    @staticmethod
    def concat(caches: Sequence["KVCache"]) -> "KVCache":
        """Concatenate caches along the token dimension.

        All caches must agree on layer/channel counts and metadata.
        """
        if not caches:
            raise ValueError("cannot concatenate an empty sequence of caches")
        first = caches[0]
        for other in caches[1:]:
            if other.num_layers != first.num_layers or other.num_channels != first.num_channels:
                raise ValueError("all caches must share layer and channel dimensions")
        return KVCache(
            k=np.concatenate([c.k for c in caches], axis=1),
            v=np.concatenate([c.v for c in caches], axis=1),
            model_name=first.model_name,
            full_layers=first.full_layers,
            full_channels=first.full_channels,
        )

    def copy(self) -> "KVCache":
        """Deep copy of the cache."""
        return KVCache(
            k=self.k.copy(),
            v=self.v.copy(),
            model_name=self.model_name,
            full_layers=self.full_layers,
            full_channels=self.full_channels,
        )

    # ------------------------------------------------------------------ errors
    def mse_per_layer(self, other: "KVCache") -> np.ndarray:
        """Mean squared error against ``other`` for each layer (K and V pooled)."""
        self._check_compatible(other)
        diff_k = (self.k - other.k) ** 2
        diff_v = (self.v - other.v) ** 2
        return (diff_k.mean(axis=(1, 2)) + diff_v.mean(axis=(1, 2))) / 2.0

    def variance_per_layer(self) -> np.ndarray:
        """Per-layer variance of the cache values (K and V pooled)."""
        return (self.k.var(axis=(1, 2)) + self.v.var(axis=(1, 2))) / 2.0

    def normalized_distortion_per_layer(self, other: "KVCache") -> np.ndarray:
        """Per-layer MSE normalised by per-layer variance (dimensionless)."""
        var = np.maximum(self.variance_per_layer(), 1e-12)
        return self.mse_per_layer(other) / var

    def _check_compatible(self, other: "KVCache") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KVCache(model={self.model_name!r}, layers={self.num_layers}, "
            f"tokens={self.num_tokens}, channels={self.num_channels}, "
            f"full_size={self.full_nbytes / 1e6:.1f} MB)"
        )
