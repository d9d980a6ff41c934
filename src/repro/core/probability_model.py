"""Symbol probability models for entropy coding of quantized KV tensors.

Arithmetic coding needs a probability distribution over symbols.  Insight 3 of
the paper says that grouping KV values by *channel and layer* yields much
lower entropy than grouping by token position, so CacheGen profiles a separate
symbol distribution for every (layer, channel) pair — offline, once per LLM —
and reuses it for every KV cache that model produces (§5.2, "Arithmetic
coding").  The ablation in §7.5 reports that this grouping shrinks the
bitstream by up to 53% versus a single global distribution.

:class:`SymbolProbabilityModel` supports all the grouping strategies the paper
compares (Figure 5): ``"channel_layer"`` (CacheGen's choice), ``"layer"``,
``"channel"``, ``"token"`` and ``"global"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .quantization import SYMBOL_CLIP

__all__ = [
    "SymbolProbabilityModel",
    "ScoringScratch",
    "Grouping",
    "ALPHABET_SIZE",
    "SYMBOL_OFFSET",
]

Grouping = Literal["channel_layer", "layer", "channel", "token", "global"]

#: Symbols live in [-SYMBOL_CLIP, SYMBOL_CLIP]; the alphabet maps them to
#: [0, ALPHABET_SIZE) by adding SYMBOL_OFFSET.
SYMBOL_OFFSET = SYMBOL_CLIP
ALPHABET_SIZE = 2 * SYMBOL_CLIP + 1

_VALID_GROUPINGS = ("channel_layer", "layer", "channel", "token", "global")

#: Contexts :meth:`SymbolProbabilityModel.cumulative_counts` quantises at a
#: time: 64 rows of float64 frequencies are 256 KiB.
_TABLE_BLOCK = 64


def _context_ids(shape: tuple[int, int, int], grouping: Grouping) -> tuple[np.ndarray, int]:
    """Context-id grid of a (layers, tokens, channels) tensor, left un-broadcast.

    Only the axes the grouping depends on have extent > 1, so the grid
    broadcasts against ``shape`` without ever being materialised at full size.
    """
    layers, tokens, channels = shape
    if grouping == "channel_layer":
        grid = np.arange(layers)[:, None, None] * channels + np.arange(channels)[None, None, :]
        return grid, layers * channels
    if grouping == "layer":
        return np.arange(layers)[:, None, None], layers
    if grouping == "channel":
        return np.arange(channels)[None, None, :], channels
    if grouping == "token":
        return np.arange(tokens)[None, :, None], tokens
    if grouping == "global":
        return np.int64(0), 1
    raise ValueError(f"unknown grouping {grouping!r}; expected one of {_VALID_GROUPINGS}")


def _symbol_range(symbols: np.ndarray) -> tuple[int, int] | None:
    """Validate a symbol tensor; its (min, max), or ``None`` when it is empty."""
    if symbols.ndim != 3:
        raise ValueError("symbols must be 3-D (layers, tokens, channels)")
    if symbols.size == 0:
        return None
    lo, hi = int(symbols.min()), int(symbols.max())
    if lo < -SYMBOL_CLIP or hi > SYMBOL_CLIP:
        raise ValueError(f"symbols must lie in [-{SYMBOL_CLIP}, {SYMBOL_CLIP}]")
    return lo, hi


def _band_counts(
    symbols: np.ndarray, ctx: np.ndarray, num_ctx: int, lo: int, hi: int
) -> np.ndarray:
    """Joint (context, symbol) counts, ``(num_ctx, hi - lo + 1)``, over the values ``lo..hi``.

    ``ctx, num_ctx`` is :func:`_context_ids` of the tensor, and every symbol
    must lie in the band.  The flat bin index is one broadcast add of the
    (small) context grid onto the symbols, so the cost is O(symbols) plus
    ``num_ctx * (hi - lo + 1)`` bins.
    """
    width = hi - lo + 1
    flat = (ctx * width - lo) + symbols
    # Order "K": counting is order-free, and a quantizer's output need not be C-ordered.
    counts = np.bincount(flat.ravel(order="K"), minlength=num_ctx * width)
    return counts.reshape(num_ctx, width)


class ScoringScratch:
    """The zeroed work table of :meth:`SymbolProbabilityModel.cross_entropy_bits`.

    A flat float64 buffer, all zeros between calls, allocated when a model
    first scores (a model that is only fitted, or only drives the exact coder,
    never pays for it) and grown to the largest table asked for.  Models that
    are scored one after another — an encoder's — can share one instance;
    sharing across threads is not safe.
    """

    def __init__(self) -> None:
        self._buffer: np.ndarray | None = None

    def table(self, shape: tuple[int, int]) -> np.ndarray:
        """The buffer viewed as a C-contiguous table of ``shape``, all zeros."""
        size = shape[0] * shape[1]
        if self._buffer is None or self._buffer.size < size:
            self._buffer = np.zeros(size)
        return self._buffer[:size].reshape(shape)


@dataclass
class SymbolProbabilityModel:
    """Per-context categorical distribution over quantized symbols.

    Build one with :meth:`fit` from one or more symbol tensors, then use
    :meth:`cross_entropy_bits` to measure the ideal (arithmetic-coding) code
    length of new data, or :meth:`cumulative_counts` to drive the exact
    arithmetic coder.

    Attributes
    ----------
    grouping:
        Which tensor dimensions define a context.
    counts:
        Smoothed (context, symbol) counts, shape ``(num_contexts, ALPHABET_SIZE)``.
    shape:
        The (layers, tokens, channels) shape the model was fit on.  Only the
        dimensions participating in the grouping must match at scoring time.
    scratch:
        Work table of :meth:`cross_entropy_bits`; the model's own unless it
        was handed one to share (see :class:`ScoringScratch`).
    """

    grouping: Grouping
    counts: np.ndarray
    shape: tuple[int, int, int]
    smoothing: float = 0.1
    scratch: ScoringScratch = field(default_factory=ScoringScratch, repr=False, compare=False)
    _log_probs: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ build
    @classmethod
    def fit(
        cls,
        symbol_tensors: list[np.ndarray] | np.ndarray,
        grouping: Grouping = "channel_layer",
        smoothing: float = 0.1,
    ) -> "SymbolProbabilityModel":
        """Fit a probability model from one or more symbol tensors.

        All tensors must share layer/channel dimensions; token counts may vary
        (token-grouped models require identical token counts).
        """
        if isinstance(symbol_tensors, np.ndarray):
            symbol_tensors = [symbol_tensors]
        if not symbol_tensors:
            raise ValueError("at least one symbol tensor is required")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")

        total_counts: np.ndarray | None = None
        shape = tuple(symbol_tensors[0].shape)
        for tensor in symbol_tensors:
            tensor = np.asarray(tensor)
            _symbol_range(tensor)
            counts = _band_counts(
                tensor, *_context_ids(tensor.shape, grouping), -SYMBOL_CLIP, SYMBOL_CLIP
            )
            if total_counts is None:
                total_counts = counts
            else:
                if counts.shape != total_counts.shape:
                    raise ValueError("all symbol tensors must induce the same context set")
                total_counts = total_counts + counts
        assert total_counts is not None
        return cls(
            grouping=grouping,
            counts=total_counts + smoothing,
            shape=shape,  # type: ignore[arg-type]
            smoothing=smoothing,
        )

    # ------------------------------------------------------------------ props
    @property
    def num_contexts(self) -> int:
        return self.counts.shape[0]

    def probabilities(self) -> np.ndarray:
        """Normalized per-context probabilities."""
        return self.counts / self.counts.sum(axis=1, keepdims=True)

    def log2_probabilities(self) -> np.ndarray:
        if self._log_probs is None:
            # In place: a second full-size table would be 4 MiB alive for one call.
            table = self.probabilities()
            self._log_probs = np.log2(table, out=table)
            # Cached and handed out by reference: a write would corrupt every later score.
            self._log_probs.flags.writeable = False
        return self._log_probs

    # ----------------------------------------------------------------- scoring
    def cross_entropy_bits(self, symbols: np.ndarray) -> float:
        """Ideal total code length (bits) of ``symbols`` under this model.

        This is the length an arithmetic coder driven by this model attains up
        to a few bytes of termination overhead.

        The value is ``-(data_counts * log2_probabilities()).sum()`` over the
        full ``(num_contexts, ALPHABET_SIZE)`` table, but only the columns
        between the smallest and the largest symbol present are counted and
        multiplied; the rest of the zeroed scratch table already holds their
        products.  The sum runs over the same table shape, and adding a zero to
        a partial sum is exact, so the result is bit-identical to the dense
        formula.
        """
        symbols = np.asarray(symbols)
        band = _symbol_range(symbols)
        ctx, num_ctx = _context_ids(symbols.shape, self.grouping)
        if num_ctx != self.num_contexts:
            raise ValueError(
                f"symbol tensor induces {num_ctx} contexts but model has {self.num_contexts}"
            )
        if band is None:
            return 0.0
        lo, hi = band
        data_counts = _band_counts(symbols, ctx, num_ctx, lo, hi)
        columns = slice(lo + SYMBOL_OFFSET, hi + SYMBOL_OFFSET + 1)
        table = self.scratch.table(self.counts.shape)
        try:
            np.multiply(data_counts, self.log2_probabilities()[:, columns], out=table[:, columns])
            return float(-table.sum())
        finally:
            table[:, columns] = 0.0

    def bits_per_element(self, symbols: np.ndarray) -> float:
        """Average ideal code length per symbol."""
        symbols = np.asarray(symbols)
        return self.cross_entropy_bits(symbols) / symbols.size

    def entropy_bits_per_symbol(self) -> float:
        """Average entropy (bits/symbol) of the fitted distributions.

        Contexts are weighted by their observed mass, matching the Figure 5
        "bits per element" measurement.
        """
        probs = self.probabilities()
        ctx_mass = self.counts.sum(axis=1)
        ctx_weights = ctx_mass / ctx_mass.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            per_ctx = -(probs * np.log2(np.where(probs > 0, probs, 1.0))).sum(axis=1)
        return float((ctx_weights * per_ctx).sum())

    # -------------------------------------------------------- arithmetic coding
    def cumulative_counts(self, quantize_total: int = 1 << 16) -> np.ndarray:
        """Integer cumulative frequency tables for the arithmetic coder.

        Returns an ``int32`` array of shape ``(num_contexts, ALPHABET_SIZE +
        1)`` where row ``c`` is the cumulative frequency of symbols under
        context ``c``, scaled so every symbol has frequency >= 1 and the total
        is ``quantize_total`` give or take the rounding.  Nothing of it is
        kept on the model: a ``(1024, 511)`` model's table is 2 MiB, derived
        in about 3 ms.
        """
        if not 2 * ALPHABET_SIZE <= quantize_total <= 1 << 30:
            raise ValueError("quantize_total must be at least twice the alphabet and at most 2**30")
        # rint(p * scale) + 1 per symbol, a block of contexts at a time: the
        # table is derived per encode/decode call, and where a full-size float
        # temporary would be a fresh 4 MiB mapping to fault in, a block's 256
        # KiB stay in cache through their five passes.
        cum = np.empty((self.num_contexts, ALPHABET_SIZE + 1), dtype=np.int32)
        cum[:, 0] = 0
        freqs = np.empty((_TABLE_BLOCK, ALPHABET_SIZE))
        for first in range(0, self.num_contexts, _TABLE_BLOCK):
            counts = self.counts[first : first + _TABLE_BLOCK]
            block = freqs[: len(counts)]
            np.divide(counts, counts.sum(axis=1, keepdims=True), out=block)
            block *= quantize_total - ALPHABET_SIZE
            np.rint(block, out=block)
            block += 1.0
            rows = cum[first : first + _TABLE_BLOCK, 1:]
            rows[...] = block
            np.cumsum(rows, axis=1, out=rows)
        return cum

    def context_ids_for(self, shape: tuple[int, int, int]) -> np.ndarray:
        """Per-element context ids for a tensor of ``shape`` under this grouping."""
        ctx, num_ctx = _context_ids(shape, self.grouping)
        if num_ctx != self.num_contexts:
            raise ValueError(
                f"shape {shape} induces {num_ctx} contexts but model has {self.num_contexts}"
            )
        return np.broadcast_to(ctx, shape)
