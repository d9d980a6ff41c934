"""Quantization primitives for KV tensors.

CacheGen uses two flavours of quantization (§5.2):

* **Vectorwise (bit-width) quantization** for anchor tokens and for the
  uniform-quantization baseline: each (layer, channel) vector is scaled by its
  max absolute value and quantized to a fixed number of bits.
* **Bin-size quantization** for delta tensors: deltas are normalised by a
  per-(layer, channel) standard deviation and rounded to a quantization bin
  whose size depends on the *layer group* — earlier layers get smaller bins
  (less loss) per Insight 2.  The paper's default bin sizes are 0.5 / 1.0 /
  1.5 for the first / middle / last third of layers (§C.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "QuantizedTensor",
    "vectorwise_quantize",
    "vectorwise_dequantize",
    "bin_quantize",
    "bin_dequantize",
    "layer_bin_sizes",
    "layer_std",
    "narrowest_symbols",
    "SYMBOL_CLIP",
]

#: Quantized symbols are clipped to this magnitude so the entropy-coding
#: alphabet stays bounded (9-bit signed alphabet).
SYMBOL_CLIP = 255

_INT8 = np.iinfo(np.int8)


def narrowest_symbols(symbols: np.ndarray) -> np.ndarray:
    """``symbols`` as ``int8`` when every value fits it, else as ``int16``.

    ``int16`` holds the whole ±``SYMBOL_CLIP`` alphabet; at the default levels
    every anchor and delta symbol also fits ``int8``, which halves what the
    payloads kept for every chunk at every level hold.  An empty tensor is
    ``int8``, and one already of the chosen dtype is returned as it is, not
    copied.
    """
    symbols = np.asarray(symbols)
    fits = symbols.size == 0 or (symbols.min() >= _INT8.min and symbols.max() <= _INT8.max)
    return symbols.astype(np.int8 if fits else np.int16, copy=False)


@dataclass
class QuantizedTensor:
    """A quantized (layers, tokens, channels) tensor plus its dequantization data.

    Attributes
    ----------
    symbols:
        Integer symbols, same shape as the original tensor.
    scale:
        Per-(layer, channel) scale, shape ``(layers, channels)``.  The
        dequantized value is ``symbol * scale`` (bin quantization folds the
        bin size into the scale).
    mode:
        Either ``"vectorwise"`` or ``"bin"``; informational.
    num_bits:
        Bit width used for vectorwise quantization, ``None`` for bin mode.
    bin_sizes:
        Per-layer bin sizes used for bin quantization, ``None`` for vectorwise.
    """

    symbols: np.ndarray
    scale: np.ndarray
    mode: str
    num_bits: int | None = None
    bin_sizes: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.symbols.shape

    def dequantize(self) -> np.ndarray:
        """Recover the (lossy) floating-point tensor."""
        return self.symbols.astype(np.float32) * self.scale[:, None, :].astype(np.float32)

    def metadata_bytes(self) -> int:
        """Bytes of side information (scales stored as fp16)."""
        return 2 * self.scale.size


def _validate_tensor(tensor: np.ndarray) -> np.ndarray:
    tensor = np.asarray(tensor, dtype=np.float32)
    if tensor.ndim != 3:
        raise ValueError("tensor must be 3-D (layers, tokens, channels)")
    return tensor


def vectorwise_quantize(tensor: np.ndarray, num_bits: int) -> QuantizedTensor:
    """Symmetric per-(layer, channel) quantization to ``num_bits`` bits.

    The scale of each (layer, channel) vector is its max absolute value over
    tokens divided by the largest representable symbol.  This is the
    "vectorwise" scheme of LLM.int8() referenced by the paper, applied along
    the token dimension.
    """
    if not 2 <= num_bits <= 16:
        raise ValueError("num_bits must be between 2 and 16")
    tensor = _validate_tensor(tensor)
    max_symbol = float(2 ** (num_bits - 1) - 1)
    max_abs = np.abs(tensor).max(axis=1)  # (layers, channels)
    scale = np.where(max_abs > 0, max_abs / max_symbol, 1.0).astype(np.float32)
    symbols = np.rint(tensor / scale[:, None, :]).astype(np.int32)
    symbols = np.clip(symbols, -int(max_symbol), int(max_symbol))
    return QuantizedTensor(symbols=symbols, scale=scale, mode="vectorwise", num_bits=num_bits)


def vectorwise_dequantize(quantized: QuantizedTensor) -> np.ndarray:
    """Inverse of :func:`vectorwise_quantize` (lossy)."""
    return quantized.dequantize()


def layer_bin_sizes(num_layers: int, group_bins: Sequence[float] = (0.5, 1.0, 1.5)) -> np.ndarray:
    """Expand per-layer-group bin sizes into a per-layer array.

    The paper splits the layers into three equal groups (earliest / middle /
    last third) and assigns each group one bin size, growing with depth.
    ``group_bins`` may have any length >= 1; layers are split into
    ``len(group_bins)`` equal groups.
    """
    if num_layers <= 0:
        raise ValueError("num_layers must be positive")
    group_bins = np.asarray(list(group_bins), dtype=np.float64)
    if len(group_bins) == 0 or np.any(group_bins <= 0):
        raise ValueError("group_bins must be a non-empty sequence of positive bin sizes")
    groups = np.minimum(
        (np.arange(num_layers) * len(group_bins)) // num_layers, len(group_bins) - 1
    )
    return group_bins[groups]


def layer_std(tensor: np.ndarray) -> np.ndarray:
    """Per-layer standard deviation, shape ``(layers, 1)``, that bin quantization divides by.

    Layers that are constant — or empty: a one-token chunk has no delta
    tokens — get 1.0, so the scale stays finite.
    """
    tensor = _validate_tensor(tensor)
    if tensor.size == 0:
        return np.ones((tensor.shape[0], 1))
    std = tensor.std(axis=(1, 2), keepdims=False)[:, None]
    return np.where(std > 1e-8, std, 1.0)


def bin_quantize(
    tensor: np.ndarray,
    bin_sizes: np.ndarray | Sequence[float],
    reference: np.ndarray | None = None,
    std: np.ndarray | None = None,
) -> QuantizedTensor:
    """Quantize a (delta) tensor with per-layer bin sizes.

    Values are first normalised by a *per-layer* standard deviation (``std``
    when the caller already holds :func:`layer_std` of the tensor, else
    computed from ``reference`` if given, else from ``tensor`` itself — the paper
    normalises per layer because "the values in the different layers have
    different ranges"), then rounded to multiples of the layer's bin size.
    Normalisation is deliberately **not** per channel: channels differ widely
    in magnitude, and it is exactly that heterogeneity that the per-(layer,
    channel) arithmetic-coding distributions exploit to shrink the bitstream.
    """
    tensor = _validate_tensor(tensor)
    num_layers = tensor.shape[0]
    bin_sizes = np.asarray(bin_sizes, dtype=np.float64)
    if bin_sizes.ndim == 0:
        bin_sizes = np.full(num_layers, float(bin_sizes))
    if bin_sizes.shape != (num_layers,):
        raise ValueError(f"bin_sizes must have shape ({num_layers},), got {bin_sizes.shape}")
    if np.any(bin_sizes <= 0):
        raise ValueError("bin sizes must be positive")

    if std is None:
        std = layer_std(reference if reference is not None else tensor)
    scale = (std * bin_sizes[:, None]).astype(np.float32)

    normalised = tensor / scale[:, None, :]
    symbols = np.rint(normalised, out=normalised).astype(np.int32)
    np.clip(symbols, -SYMBOL_CLIP, SYMBOL_CLIP, out=symbols)
    return QuantizedTensor(
        symbols=symbols,
        scale=scale,
        mode="bin",
        bin_sizes=bin_sizes.astype(np.float64),
    )


def bin_dequantize(quantized: QuantizedTensor) -> np.ndarray:
    """Inverse of :func:`bin_quantize` (lossy)."""
    return quantized.dequantize()
