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
from typing import Sequence

import numpy as np

__all__ = [
    "KVCache",
    "LAYER_BLOCK_VALUES",
    "layer_blocks",
    "normalized_distortion",
    "squared_error_per_layer",
]

#: Bytes per element of an uncompressed KV cache.  The paper (and common
#: serving stacks) keep KV caches in fp16, i.e. two bytes per element.
FP16_BYTES_PER_ELEMENT = 2

#: Values a blocked per-layer pass works on at a time (see :func:`layer_blocks`):
#: 512 KiB of float64.  A 1,500-token chunk's 32 x 32 layers come two at a
#: time, a 128-token one's 17.  Blocks of 2^18 values (with 256-column score
#: blocks) were no faster, and in a served run their 2 MiB transients kept
#: glibc trimming the heap and faulting it back in: serve-steady at seed 49
#: read 142k minor faults and 1,273 op/s, against 73k and 1,448 at 2^16.
LAYER_BLOCK_VALUES = 1 << 16


def layer_blocks(num_layers: int, layer_values: int) -> list[slice]:
    """Slices that cover ``num_layers`` layers of ``layer_values`` values each, a block at a time.

    A block is as many whole layers as ``LAYER_BLOCK_VALUES`` holds, and
    never one lone layer of a larger tensor: a per-layer reduction over a
    block gives each layer the bits the whole tensor gives only while the
    block keeps a layer axis numpy cannot fold away, and
    ``einsum("tlc,tlc->l")`` over a one-layer block sums tokens and channels
    as one run, in another order.  So blocks hold at least two layers, and a
    last lone layer joins the block before it; a one-layer tensor is one
    block, reduced as it is whole.  There is always one block, empty for no
    layers.
    """
    size = max(2, LAYER_BLOCK_VALUES // max(1, layer_values))
    starts = list(range(0, num_layers, size)) or [0]
    if len(starts) > 1 and num_layers - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [num_layers])]


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

    def variance_per_layer(self) -> np.ndarray:
        """Per-layer variance of the cache values (K and V pooled).

        ``var(axis=(1, 2), dtype=float64)`` of K and of V, taken a
        :func:`layer_blocks` block at a time: each layer's mean and sum of
        squares are the whole tensor's bit for bit, and the float64
        temporary is one block of one tensor, not a copy of all of it.
        """
        variance = np.empty(self.num_layers)
        for block in layer_blocks(self.num_layers, self.num_tokens * self.num_channels):
            variance[block] = self.k[block].var(axis=(1, 2), dtype=np.float64)
            variance[block] += self.v[block].var(axis=(1, 2), dtype=np.float64)
        variance /= 2.0
        return variance

    def normalized_distortion_per_layer(self, other: "KVCache") -> np.ndarray:
        """Per-layer MSE normalised by per-layer variance (dimensionless)."""
        return normalized_distortion(
            self._squared_error(other),
            2 * self.num_tokens * self.num_channels,
            self.variance_per_layer(),
        )

    def _squared_error(self, other: "KVCache") -> np.ndarray:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return squared_error_per_layer(self.k, other.k) + squared_error_per_layer(
            self.v, other.v
        )


def squared_error_per_layer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum((a - b) ** 2)`` over every axis but the first (layers), in float64.

    Taken a :func:`layer_blocks` block at a time, so the float64 difference
    is one block; each layer's sum is the whole-tensor sum bit for bit.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    error = np.empty(len(a))
    for block in layer_blocks(len(a), a[:1].size):
        diff = np.subtract(a[block], b[block], dtype=np.float64)
        diff *= diff
        error[block] = diff.reshape(len(diff), -1).sum(axis=1)
    return error


def normalized_distortion(
    squared_error: np.ndarray, num_elements: int, variance: np.ndarray
) -> np.ndarray:
    """Per-layer MSE over variance: the one distortion every method is scored by.

    ``squared_error`` sums over ``num_elements`` values per layer, K and V
    added; ``variance`` is the lossless cache's :meth:`KVCache.variance_per_layer`.
    """
    return squared_error / num_elements / np.maximum(variance, 1e-12)
