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

A model keeps only the band of symbol values its samples span: every other
column of the ``(contexts, ALPHABET_SIZE)`` table holds the smoothing constant
alone, so it is implied rather than stored.  Every dense table a model hands
out is rebuilt from the band and equals, bit for bit, the table a dense fit
would hold.
"""

from __future__ import annotations

import math
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

#: Contexts a dense table is rebuilt from the band at a time (the fit's row
#: totals, :meth:`SymbolProbabilityModel.cumulative_counts`): 64 rows of
#: float64 frequencies are 256 KiB.
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
    # The coder's rule: a bool is no symbol, and a float would reach np.bincount.
    if symbols.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers, not {symbols.dtype}")
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


def _densify(rows: np.ndarray, lo: int, smoothing: float, out: np.ndarray) -> np.ndarray:
    """Band ``rows`` (first column: symbol ``lo``) as full-alphabet smoothed counts.

    Written into the first ``len(rows)`` rows of ``out``, which is returned
    cut to them.  A column outside the band holds what a dense fit puts there,
    ``0 + smoothing``, which is ``smoothing`` exactly.
    """
    dense = out[: len(rows)]
    dense.fill(smoothing)
    dense[:, lo + SYMBOL_OFFSET : lo + SYMBOL_OFFSET + rows.shape[1]] = rows
    return dense


def _dense_blocks(band: np.ndarray, lo: int, smoothing: float):
    """``(first context, its dense block)``, ``_TABLE_BLOCK`` contexts at a time.

    Every block is written into the same buffer, so each is only valid until
    the next is yielded.
    """
    buffer = np.empty((_TABLE_BLOCK, ALPHABET_SIZE))
    for first in range(0, len(band), _TABLE_BLOCK):
        yield first, _densify(band[first : first + _TABLE_BLOCK], lo, smoothing, buffer)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


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

    Only the band of symbol values the fit saw is stored: the default
    mistral-7b profile's symbols span 24-255 of the 511 columns, so its six
    models hold ≈10 MiB once scored where dense tables held ≈48 MiB.  The
    dense tables (:attr:`counts`, :meth:`probabilities`,
    :meth:`log2_probabilities`) are rebuilt on each call for the dense-formula
    oracles and the Figure 5 analysis; scoring and coding never build one.

    Attributes
    ----------
    grouping:
        Which tensor dimensions define a context.
    band:
        Smoothed (context, symbol) counts of the symbols ``lo .. lo + width - 1``,
        shape ``(num_contexts, width)``; read-only.  Every symbol outside the
        band has the count ``smoothing``.
    lo:
        The smallest symbol the fit saw (the band's first column).
    totals:
        Each context's smoothed count over the whole alphabet, summed as the
        dense row is, so it equals ``counts.sum(axis=1)`` bit for bit; read-only.
    shape:
        The (layers, tokens, channels) shape the model was fit on.  Only the
        dimensions participating in the grouping must match at scoring time.
    scratch:
        Work table of :meth:`cross_entropy_bits`; the model's own unless it
        was handed one to share (see :class:`ScoringScratch`).
    """

    grouping: Grouping
    band: np.ndarray
    lo: int
    totals: np.ndarray
    shape: tuple[int, int, int]
    smoothing: float = 0.1
    scratch: ScoringScratch = field(default_factory=ScoringScratch, repr=False, compare=False)
    #: ``log2 p`` over the band, and per context of any symbol outside it;
    #: computed at the first score.
    _log_band: np.ndarray | None = field(default=None, repr=False, compare=False)
    _log_outside: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        if not (math.isfinite(smoothing) and smoothing > 0):
            raise ValueError(f"smoothing must be finite and positive, not {smoothing!r}")
        smoothing = float(smoothing)

        tensors = [np.asarray(tensor) for tensor in symbol_tensors]
        ranges = [r for r in map(_symbol_range, tensors) if r is not None]
        lo = min((r[0] for r in ranges), default=0)
        hi = max((r[1] for r in ranges), default=lo - 1)
        total_counts: np.ndarray | None = None
        for tensor in tensors:
            counts = _band_counts(tensor, *_context_ids(tensor.shape, grouping), lo, hi)
            if total_counts is None:
                total_counts = counts
            else:
                if counts.shape != total_counts.shape:
                    raise ValueError("all symbol tensors must induce the same context set")
                total_counts += counts
        assert total_counts is not None
        band = total_counts + smoothing
        # Each row summed as its dense form, so totals match a dense fit's bit for bit.
        totals = np.empty(len(band))
        for first, block in _dense_blocks(band, lo, smoothing):
            totals[first : first + len(block)] = block.sum(axis=1)
        return cls(
            grouping=grouping,
            band=_read_only(band),
            lo=lo,
            totals=_read_only(totals),
            shape=tuple(tensors[0].shape),  # type: ignore[arg-type]
            smoothing=smoothing,
        )

    # ------------------------------------------------------------------ props
    @property
    def num_contexts(self) -> int:
        return self.band.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """Smoothed (context, symbol) counts, ``(num_contexts, ALPHABET_SIZE)``.

        Rebuilt from the band on each call, read-only.
        """
        return _read_only(self._dense_counts())

    def probabilities(self) -> np.ndarray:
        """Normalized per-context probabilities; built per call, read-only."""
        return _read_only(self._probabilities())

    def log2_probabilities(self) -> np.ndarray:
        """``log2`` of :meth:`probabilities`; built per call, read-only."""
        table = self._probabilities()
        return _read_only(np.log2(table, out=table))

    def _dense_counts(self) -> np.ndarray:
        return _densify(
            self.band, self.lo, self.smoothing, np.empty((self.num_contexts, ALPHABET_SIZE))
        )

    def _probabilities(self) -> np.ndarray:
        table = self._dense_counts()
        return np.divide(table, self.totals[:, None], out=table)

    def _log2_band(self) -> tuple[np.ndarray, np.ndarray]:
        """``log2 p`` over the band, and per context of every symbol outside it.

        The same divisions and logarithms, element for element, as
        :meth:`log2_probabilities`, so each value is the dense table's.
        """
        if self._log_band is None:
            table = np.divide(self.band, self.totals[:, None])
            self._log_band = _read_only(np.log2(table, out=table))
            self._log_outside = _read_only(np.log2(self.smoothing / self.totals))
        assert self._log_outside is not None
        return self._log_band, self._log_outside

    # ----------------------------------------------------------------- scoring
    def cross_entropy_bits(self, symbols: np.ndarray) -> float:
        """Ideal total code length (bits) of ``symbols`` under this model.

        This is the length an arithmetic coder driven by this model attains up
        to a few bytes of termination overhead.

        The value is ``-(data_counts * log2_probabilities()).sum()`` over the
        full ``(num_contexts, ALPHABET_SIZE)`` table, but only the columns
        between the smallest and the largest symbol present are counted and
        multiplied, each by the band's log-probability where the model's band
        covers it and by the context's out-of-band one where it does not; the
        rest of the zeroed scratch table already holds their products.  The
        operands are the dense formula's, the sum runs over the same table
        shape, and adding a zero to a partial sum is exact, so the result is
        bit-identical to the dense formula.
        """
        symbols = np.asarray(symbols)
        data_range = _symbol_range(symbols)
        ctx, num_ctx = _context_ids(symbols.shape, self.grouping)
        if num_ctx != self.num_contexts:
            raise ValueError(
                f"symbol tensor induces {num_ctx} contexts but model has {self.num_contexts}"
            )
        if data_range is None:
            return 0.0
        lo, hi = data_range
        data_counts = _band_counts(symbols, ctx, num_ctx, lo, hi)
        log_band, log_outside = self._log2_band()
        # The model's band as data columns [start, stop); the rest lie outside it.
        width = hi - lo + 1
        start = min(max(self.lo - lo, 0), width)
        stop = min(max(self.lo + self.band.shape[1] - lo, start), width)
        table = self.scratch.table((num_ctx, ALPHABET_SIZE))
        columns = table[:, lo + SYMBOL_OFFSET : hi + SYMBOL_OFFSET + 1]
        try:
            inside = slice(lo + start - self.lo, lo + stop - self.lo)
            np.multiply(data_counts[:, start:stop], log_band[:, inside], out=columns[:, start:stop])
            outside = log_outside[:, None]
            np.multiply(data_counts[:, :start], outside, out=columns[:, :start])
            np.multiply(data_counts[:, stop:], outside, out=columns[:, stop:])
            return float(-table.sum())
        finally:
            columns[...] = 0.0

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
        ctx_weights = self.totals / self.totals.sum()
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
        for first, block in _dense_blocks(self.band, self.lo, self.smoothing):
            np.divide(block, self.totals[first : first + len(block), None], out=block)
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
