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

A model keeps only the band of symbol values its samples span, as the
integer counts its fit took: every other column of the ``(contexts,
ALPHABET_SIZE)`` table holds the smoothing constant alone, so it is implied
rather than stored, and every smoothed value is derived where it is read.
Every dense table a model hands out is rebuilt from the counts and equals,
bit for bit, the table a dense fit would hold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .arithmetic_coder import MAX_TOTAL_FREQUENCY, BandTable, _kept_table
from .kv_cache import layer_blocks
from .quantization import SYMBOL_CLIP

__all__ = [
    "SymbolProbabilityModel",
    "Grouping",
    "ALPHABET_SIZE",
    "SYMBOL_OFFSET",
    "MAX_QUANTIZE_TOTAL",
]

Grouping = Literal["channel_layer", "layer", "channel", "token", "global"]

#: Symbols live in [-SYMBOL_CLIP, SYMBOL_CLIP]; the alphabet maps them to
#: [0, ALPHABET_SIZE) by adding SYMBOL_OFFSET.
SYMBOL_OFFSET = SYMBOL_CLIP
ALPHABET_SIZE = 2 * SYMBOL_CLIP + 1
#: The largest ``quantize_total`` :meth:`SymbolProbabilityModel.cumulative_band`
#: takes: rounding each of the ``ALPHABET_SIZE`` frequencies to the nearest
#: integer adds at most half a count apiece, so the total stays within the
#: arithmetic coder's ``MAX_TOTAL_FREQUENCY``.
MAX_QUANTIZE_TOTAL = MAX_TOTAL_FREQUENCY - ALPHABET_SIZE // 2

_VALID_GROUPINGS = ("channel_layer", "layer", "channel", "token", "global")

#: Contexts a dense table is rebuilt from the band at a time (the fit's row
#: totals): 64 rows of float64 frequencies are 256 KiB.
_TABLE_BLOCK = 64
#: Band values :meth:`SymbolProbabilityModel.cumulative_band` turns into
#: frequencies at a time: as many contexts as a dense block holds values.
_BLOCK_VALUES = _TABLE_BLOCK * ALPHABET_SIZE
#: Data columns :meth:`SymbolProbabilityModel.cross_entropy_bits` forms and
#: folds its products for at a time: 512 KiB of float64 at 1,024 contexts.
#: Sixteen scores of a 1,500-token chunk measured ≈40 ms at 64 or 128
#: columns and ≈38 ms at 256 in isolation, but in a whole encode at 1,500
#: tokens, beside the other blocked passes, the 64-column blocks were no
#: slower than the unblocked parent, and wider ones kept a served run's
#: heap trimming and refaulting (see ``kv_cache.LAYER_BLOCK_VALUES``).
_SCORE_BLOCK_COLUMNS = 64


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
    must lie in the band.  The symbols are counted a
    :func:`~repro.core.kv_cache.layer_blocks` block at a time: a block's flat
    bin index is one broadcast add of its slice of the (small) context grid
    onto its symbols.  The first block is counted over every context, into
    the table the later blocks add their counts to, each over the contexts
    its slice spans.  Integer counts do not depend on the order they are
    taken in, so the table is the whole tensor's, and the cost is O(symbols)
    plus the table.
    """
    width = hi - lo + 1
    layered = np.ndim(ctx) == 3 and ctx.shape[0] > 1
    counts = None
    for block in layer_blocks(len(symbols), symbols[:1].size):
        ids = ctx[block] if layered else ctx
        low, high = (0, num_ctx) if counts is None else (int(np.min(ids)), int(np.max(ids)) + 1)
        # Order "K": counting is order-free, and a quantizer's output need not be C-ordered.
        rows = np.bincount(
            (((ids - low) * width - lo) + symbols[block]).ravel(order="K"),
            minlength=(high - low) * width,
        )
        if counts is None:
            counts = rows.reshape(num_ctx, width)
        else:
            counts[low:high] += rows.reshape(high - low, width)
    return counts


def _densify(rows: np.ndarray, lo: int, smoothing: float, out: np.ndarray) -> np.ndarray:
    """Integer band ``rows`` (first column: symbol ``lo``) as full-alphabet smoothed counts.

    Written into the first ``len(rows)`` rows of ``out``, which is returned
    cut to them.  A column inside the band holds ``count + smoothing``, one
    outside it what a dense fit puts there, ``0 + smoothing``, which is
    ``smoothing`` exactly.
    """
    dense = out[: len(rows)]
    dense.fill(smoothing)
    np.add(rows, smoothing, out=dense[:, lo + SYMBOL_OFFSET : lo + SYMBOL_OFFSET + rows.shape[1]])
    return dense


def _dense_blocks(counts: np.ndarray, lo: int, smoothing: float):
    """``(first context, its dense block)``, ``_TABLE_BLOCK`` contexts at a time.

    Every block is written into the same buffer, so each is only valid until
    the next is yielded.
    """
    buffer = np.empty((_TABLE_BLOCK, ALPHABET_SIZE))
    for first in range(0, len(counts), _TABLE_BLOCK):
        yield first, _densify(counts[first : first + _TABLE_BLOCK], lo, smoothing, buffer)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _fold_rows(table: np.ndarray) -> np.ndarray:
    """Each column of a non-empty 2-D float table summed in the order scores are defined in.

    The rows are folded pairwise in place — the upper half added onto the
    lower, an odd last row onto the row below the half — until one row is
    left, which is returned (a view of ``table``'s first row).  Each column
    is folded on its own, by elementwise adds, so a column's sum does not
    depend on numpy's reduction strategy nor on the columns beside it.
    ``table`` is overwritten.
    """
    rows = len(table)
    while rows > 1:
        half = rows // 2
        table[:half] += table[half : 2 * half]
        if rows % 2:
            table[half - 1] += table[rows - 1]
        rows = half
    return table[0]


def _fold_sum(table: np.ndarray) -> float:
    """Sum of a non-empty 2-D float table in the order scores are defined in.

    :func:`_fold_rows`, then the columns of the row left summed left to right
    by one sequential scan.  The order is fixed, so a column of zeros
    anywhere leaves the sum unchanged, and folding the table a block of
    columns at a time gives it bit for bit.  ``table`` is overwritten.
    """
    return float(np.add.accumulate(_fold_rows(table))[-1])


@dataclass(eq=False)
class SymbolProbabilityModel:
    """Per-context categorical distribution over quantized symbols.

    Build one with :meth:`fit` from one or more symbol tensors (or with
    :meth:`from_counts` from the counts a fit took), then use
    :meth:`cross_entropy_bits` to measure the ideal (arithmetic-coding) code
    length of new data, or :meth:`cumulative_band` to drive the exact
    arithmetic coder.

    Only the band of symbol values the fit saw is stored, and only as the
    integer counts the fit took: the default mistral-7b profile's symbols span
    24-255 of the 511 columns, so its six models hold 0.9 MiB of counts,
    4.8 MiB more of log-probability tables once scored, and 2.5 MiB more of
    ``int32`` coder tables once coded exactly, where dense float tables held
    ≈48 MiB.  Those two kinds of table are built at their first use and
    kept; the smoothed :attr:`band` and the dense tables (:attr:`counts`,
    :meth:`probabilities`) are rebuilt on each call for the dense-formula
    oracles and the Figure 5 analysis; scoring and coding never build one.

    Two models are ``==`` when they hold the same grouping, band position,
    shape, smoothing and integer counts — what
    :meth:`~repro.core.encoder.FittedCodec.save` writes, from which every
    other table is derived.

    Attributes
    ----------
    grouping:
        Which tensor dimensions define a context.
    band_counts:
        Raw (unsmoothed) (context, symbol) counts of the symbols ``lo .. lo +
        width - 1``, shape ``(num_contexts, width)``, in the narrowest unsigned
        integer dtype that holds them; read-only.  Every symbol outside the
        band has the count 0.
    lo:
        The smallest symbol the fit saw (the band's first column).
    totals:
        Each context's smoothed count over the whole alphabet, summed as the
        dense row is, so it equals ``counts.sum(axis=1)`` bit for bit; read-only.
    shape:
        The (layers, tokens, channels) shape the model was fit on.  Only the
        dimensions participating in the grouping must match at scoring time.
    """

    grouping: Grouping
    band_counts: np.ndarray
    lo: int
    totals: np.ndarray
    shape: tuple[int, int, int]
    smoothing: float = 0.1
    #: ``log2 p`` over the band, and per context of any symbol outside it;
    #: computed at the first score.
    _log_band: np.ndarray | None = field(default=None, repr=False, compare=False)
    _log_outside: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: The exact coder's :meth:`cumulative_band`, validated and read-only;
    #: derived at the first exact encode or decode.
    _band_table: BandTable | None = field(default=None, repr=False, compare=False)

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
        (token-grouped models require identical token counts).  The fit counts
        every (context, symbol) pair over the band the symbols span and ends
        in :meth:`from_counts`, so a model rebuilt from those counts is this
        one, bit for bit.
        """
        if isinstance(symbol_tensors, np.ndarray):
            symbol_tensors = [symbol_tensors]
        if not symbol_tensors:
            raise ValueError("at least one symbol tensor is required")
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
            # Gone before the next tensor is counted: two tables at a time, not three.
            del counts
        assert total_counts is not None
        return cls.from_counts(total_counts, lo, tensors[0].shape, grouping, smoothing)

    @classmethod
    def from_counts(
        cls,
        counts: np.ndarray,
        lo: int,
        shape: tuple[int, int, int],
        grouping: Grouping = "channel_layer",
        smoothing: float = 0.1,
    ) -> "SymbolProbabilityModel":
        """The model a fit that counted ``counts`` builds, bit for bit.

        ``counts`` are the raw (unsmoothed) (context, symbol) counts of the
        symbols ``lo .. lo + width - 1``, shape ``(num_contexts, width)``, and
        ``shape`` is the (layers, tokens, channels) shape of the tensors
        counted.  :meth:`fit` ends here, so the two share every float
        operation; a saved profile (:meth:`~repro.core.encoder.FittedCodec.load`)
        is rebuilt here too, which is why every input is validated
        (``ValueError``): the counts must be 2-D non-negative integers, the
        band must lie within ±``SYMBOL_CLIP``, the grouping must be known and
        the row count must be the number of contexts it induces on ``shape``.
        """
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.dtype.kind not in "iu":
            raise ValueError(
                f"counts must be a 2-D integer array, not {counts.ndim}-D {counts.dtype}"
            )
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if isinstance(lo, bool) or not isinstance(lo, numbers.Integral):
            raise ValueError(f"lo must be an integer, not {lo!r}")
        lo, width = int(lo), counts.shape[1]
        if lo < -SYMBOL_CLIP or lo + width - 1 > SYMBOL_CLIP:
            raise ValueError(
                f"band {lo}..{lo + width - 1} lies outside the alphabet "
                f"[-{SYMBOL_CLIP}, {SYMBOL_CLIP}]"
            )
        extents = np.asarray(shape)
        if extents.shape != (3,) or extents.dtype.kind not in "iu" or extents.min() < 0:
            raise ValueError(f"shape must be 3 non-negative integer extents, not {shape!r}")
        shape = tuple(int(extent) for extent in extents)
        _, num_ctx = _context_ids(shape, grouping)
        if len(counts) != num_ctx:
            raise ValueError(
                f"counts have {len(counts)} rows, but grouping {grouping!r} induces "
                f"{num_ctx} contexts on shape {shape}"
            )
        if not (math.isfinite(smoothing) and smoothing > 0):
            raise ValueError(f"smoothing must be finite and positive, not {smoothing!r}")
        smoothing = float(smoothing)
        # A copy, so the caller's array stays theirs to write.
        counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))
        # Each row summed as its dense form, so totals match a dense fit's bit for bit.
        totals = np.empty(len(counts))
        for first, block in _dense_blocks(counts, lo, smoothing):
            totals[first : first + len(block)] = block.sum(axis=1)
        return cls(
            grouping=grouping,
            band_counts=_read_only(counts),
            lo=lo,
            totals=_read_only(totals),
            shape=shape,  # type: ignore[arg-type]
            smoothing=smoothing,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolProbabilityModel):
            return NotImplemented
        mine = (self.grouping, self.lo, self.shape, self.smoothing)
        theirs = (other.grouping, other.lo, other.shape, other.smoothing)
        return mine == theirs and np.array_equal(self.band_counts, other.band_counts)

    # ------------------------------------------------------------------ props
    @property
    def num_contexts(self) -> int:
        return self.band_counts.shape[0]

    @property
    def band(self) -> np.ndarray:
        """Smoothed (context, symbol) counts of the band, ``band_counts + smoothing``.

        Float64, shape ``(num_contexts, width)``; built per call, read-only.
        Every symbol outside the band has the count ``smoothing``.
        """
        return _read_only(np.add(self.band_counts, self.smoothing, dtype=np.float64))

    @property
    def counts(self) -> np.ndarray:
        """Smoothed (context, symbol) counts, ``(num_contexts, ALPHABET_SIZE)``.

        Rebuilt from the band on each call, read-only.
        """
        return _read_only(self._dense_counts())

    def probabilities(self) -> np.ndarray:
        """Normalized per-context probabilities; built per call, read-only."""
        return _read_only(self._probabilities())

    def _dense_counts(self) -> np.ndarray:
        return _densify(
            self.band_counts, self.lo, self.smoothing, np.empty((self.num_contexts, ALPHABET_SIZE))
        )

    def _probabilities(self) -> np.ndarray:
        table = self._dense_counts()
        return np.divide(table, self.totals[:, None], out=table)

    def _log2_band(self) -> tuple[np.ndarray, np.ndarray]:
        """``log2 p`` over the band, and per context of every symbol outside it.

        The same divisions and logarithms, element for element, as
        ``log2`` of :meth:`probabilities`, so each value is the dense table's.
        """
        if self._log_band is None:
            table = np.add(self.band_counts, self.smoothing, dtype=np.float64)
            np.divide(table, self.totals[:, None], out=table)
            self._log_band = _read_only(np.log2(table, out=table))
            self._log_outside = _read_only(np.log2(self.smoothing / self.totals))
        assert self._log_outside is not None
        return self._log_band, self._log_outside

    # ----------------------------------------------------------------- scoring
    def cross_entropy_bits(self, symbols: np.ndarray) -> float:
        """Ideal total code length (bits) of ``symbols`` under this model.

        This is the length an arithmetic coder driven by this model attains up
        to a few bytes of termination overhead.

        The value is ``-(data_counts * log2(probabilities()))`` over the full
        ``(num_contexts, ALPHABET_SIZE)`` table, summed in one fixed order:
        the rows (contexts) folded pairwise in place, then the one row left
        summed left to right (see :func:`_fold_sum`).  A column no symbol
        reaches holds zeros and folds to a zero, which changes no partial sum,
        so only the columns between the smallest and the largest symbol
        present are counted and multiplied — each by the band's
        log-probability where the model's band covers it and by the context's
        out-of-band one where it does not — and the result equals the full
        table's bit for bit.  The counts are one ``int64`` table taken a block
        of layers at a time (:func:`_band_counts`); the products are formed
        and their rows folded ``_SCORE_BLOCK_COLUMNS`` columns at a time,
        since each column folds on its own, so the float64 temporary is one
        block of columns wide, whatever the band.
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
        stop = min(max(self.lo + self.band_counts.shape[1] - lo, start), width)
        outside = log_outside[:, None]
        folded = np.empty((1, width))  # each column's fold: a one-row table
        buffer = np.empty((num_ctx, min(width, _SCORE_BLOCK_COLUMNS)))
        for first in range(0, width, _SCORE_BLOCK_COLUMNS):
            last = min(first + _SCORE_BLOCK_COLUMNS, width)
            # This block's columns below, inside and above the model's band.
            below, above = min(max(start, first), last), min(max(stop, first), last)
            products = buffer[:, : last - first]
            np.multiply(data_counts[:, first:below], outside, out=products[:, : below - first])
            np.multiply(
                data_counts[:, below:above],
                log_band[:, below + lo - self.lo : above + lo - self.lo],
                out=products[:, below - first : above - first],
            )
            np.multiply(data_counts[:, above:last], outside, out=products[:, above - first :])
            folded[0, first:last] = _fold_rows(products)
        return -_fold_sum(folded)

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
    def cumulative_band(self, quantize_total: int = 1 << 16) -> BandTable:
        """Integer cumulative frequency tables for the arithmetic coder, over the band.

        The :class:`~repro.core.arithmetic_coder.BandTable` of the
        ``(num_contexts, ALPHABET_SIZE + 1)`` ``int32`` table whose row ``c``
        is the cumulative frequency of symbols under context ``c``, scaled so
        every symbol has frequency >= 1 and the total is ``quantize_total``
        give or take the rounding, which adds at most ``ALPHABET_SIZE // 2``:
        the largest admissible ``quantize_total`` is :data:`MAX_QUANTIZE_TOTAL`,
        so every table fits the coder's budget.

        Each frequency is the dense formula's ``rint(p * (quantize_total -
        ALPHABET_SIZE)) + 1``, but the floats are worked over the band only:
        every symbol outside it has its context's one out-of-band frequency,
        derived once, and only the band's columns are summed.  The integer
        sums are exact, so :meth:`cumulative_counts`, its dense expansion, is
        the dense derivation's table bit for bit.  It costs what the band's
        width does, and so does the table: 0.1-1 MiB for a ``(1024, 511)``
        model whose band is 20-255 symbols wide, where the dense table is
        2 MiB.  Each call derives a new table; the exact coder's, at the
        default total, is derived once and kept on the model.
        """
        if not 2 * ALPHABET_SIZE <= quantize_total <= MAX_QUANTIZE_TOTAL:
            raise ValueError(
                f"quantize_total must be at least twice the alphabet and at most "
                f"{MAX_QUANTIZE_TOTAL} (2**30 less the rounding), not {quantize_total!r}"
            )
        scale = quantize_total - ALPHABET_SIZE
        outside = np.divide(self.smoothing, self.totals)
        outside *= scale
        np.rint(outside, out=outside)
        outside += 1.0
        outside = outside.astype(np.int32)
        # ``band[:, i]`` sums the frequencies of the symbols below ``start +
        # i``: ``start`` out-of-band ones, then the band's running sum.
        start = self.lo + SYMBOL_OFFSET
        width = self.band_counts.shape[1]
        band = np.empty((self.num_contexts, width + 1), dtype=np.int32)
        np.multiply(outside, start, out=band[:, 0])
        # The band's frequencies a block of contexts at a time, smoothed into
        # one float buffer, so the float temporary stays cache-sized however
        # wide the band.
        block_rows = max(1, _BLOCK_VALUES // max(1, width))
        buffer = np.empty((min(block_rows, self.num_contexts), width))
        for first in range(0, self.num_contexts, block_rows):
            rows = slice(first, first + block_rows)
            counts = self.band_counts[rows]
            block = np.add(counts, self.smoothing, out=buffer[: len(counts)])
            block /= self.totals[rows, None]
            block *= scale
            np.rint(block, out=block)
            block += 1.0
            band[rows, 1:] = block
        np.cumsum(band, axis=1, out=band)
        return BandTable(band, outside, start, ALPHABET_SIZE)

    def _coder_table(self) -> BandTable:
        """The exact coder's table: :meth:`cumulative_band` at its default total.

        Derived and validated at the first call and kept, read-only, for every
        later encode and decode of this model.
        """
        if self._band_table is None:
            self._band_table = _kept_table(self.cumulative_band())
        return self._band_table

    def cumulative_counts(self, quantize_total: int = 1 << 16) -> np.ndarray:
        """The dense ``int32`` table :meth:`cumulative_band` stands for.

        Shape ``(num_contexts, ALPHABET_SIZE + 1)``, expanded from the band
        table, 2 MiB for a ``(1024, 511)`` model, built per call: for the
        dense-formula oracles, not for the coder.
        """
        return self.cumulative_band(quantize_total).dense()

    def context_ids_for(self, shape: tuple[int, int, int]) -> np.ndarray:
        """Per-element context ids for a tensor of ``shape`` under this grouping."""
        ctx, num_ctx = _context_ids(shape, self.grouping)
        if num_ctx != self.num_contexts:
            raise ValueError(
                f"shape {shape} induces {num_ctx} contexts but model has {self.num_contexts}"
            )
        return np.broadcast_to(ctx, shape)
