"""Lane-parallel integer arithmetic coder (Witten-Neal-Cleary).

CacheGen's bitstreams are produced by an arithmetic coder driven by the
per-(layer, channel) probability models (§5.2), and the paper makes coding
cheap by making it *parallel*: every token's stream is coded by its own CUDA
thread, all of them launched together (§6).  This module is that structure in
numpy.  A payload is split into ``lanes`` independent streams, lane ``l``
owning the flat symbols ``l, l + lanes, l + 2 * lanes, ...``; all lanes
advance one symbol per step with one vectorised range update, so a payload
costs ``ceil(n / lanes)`` numpy steps instead of ``n`` Python ones.

A coder built for a *batch* (``sizes=``) puts the lanes of several payloads —
a chunk's K-delta, K-anchor, V-delta and V-anchor — side by side on one lane
axis and runs one loop over them.  Each payload keeps its own lane count,
table and byte string; one with fewer steps than another rides along on a
probability-one filler that emits no bits and changes no state.  A numpy step
costs 25-30 µs however few lanes it has, so four payloads in one loop cost
little more than the largest alone, and a payload's bytes do not depend on
what it was batched with.  What is worth batching is the caller's call
(:func:`repro.core.entropy_codec.encode_payloads` stops at 1,024 lanes): a
lane costs about 0.09 µs a step, so a wide loop gains little from more lanes.

Each lane is a plain 32-bit Witten-Neal-Cleary stream — byte for byte what a
one-symbol-at-a-time coder writes for the lane's symbols (the test suite keeps
that scalar coder and compares, ``tests/core/test_lane_coder.py``; the batch
is held to the single payload by ``tests/core/test_chunk_coder.py``).  What
makes a step vectorisable is that its renormalisation has a closed form.  The
shifts that emit a bit (E1/E2: ``low`` and ``high`` agree on the top bit)
always precede the shifts that defer one (E3: ``low = 01..``, ``high =
10..``), because an E3 shift leaves ``low < half <= high``.  So a step shifts
``k`` = (number of leading bits ``low`` and ``high`` share) times and emits
those bits, then ``m`` = (run of ``low`` 1 / ``high`` 0 bits below the first
differing bit) times and adds ``m`` to the pending count; both are bit lengths,
read off ``np.frexp``.  Every shift doubles the interval, so a lane's state is
``low`` and the interval's size.  Each step records what it emitted, and after
the loop a payload's records are assembled 64-bit word by word, not bit by
bit: a record is at most 32 significant bits plus a run of one repeated bit.

Bitstream: ``lanes - 1`` lane byte-lengths as LEB128 varints (the last lane
takes the rest), then the byte-aligned lane streams in lane order.  One lane
has no table, which is the classic single-stream format.

The coder is *static*: frequencies come from a pre-computed cumulative table
(optionally a different table row per symbol context), exactly like CacheGen's
offline-profiled distributions.  The one table form is a :class:`BandTable`:
the cumulative counts over a band of symbols, plus one frequency per row that
every symbol outside the band has.  A fitted model's symbols span 20-255 of
the 511 columns, so its ``(1024, 511)`` table is 0.1-1 MiB of ``int32`` (the
largest admissible total is ``2**30``) where the dense one was 2 MiB, and
the coder checks and searches that band alone.  A dense ``cum_freq`` is the
band table that starts at symbol 0 and covers the whole alphabet.  A fitted
model derives its table once, at its first exact call, and keeps it
read-only (:func:`_kept_table`): the coder takes a kept table as it is,
without checking it again.  Nothing else outlives a call: the decoder's
search table and every per-step array are built for the call and dropped
with the coder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "BandTable"]

_PRECISION = 32
_HALF = 1 << (_PRECISION - 1)
_QUARTER = 1 << (_PRECISION - 2)
_BELOW_TOP = _HALF - 1
#: Maximum admissible total frequency so the coding range never underflows.
MAX_TOTAL_FREQUENCY = _QUARTER

_COUNTS = np.arange(_PRECISION + 1)
# Lookups by the bit length w of ``low ^ high`` (0 when they are equal, else
# bit w - 1 is the first on which they differ): the bits below that first
# differing bit, and the shifts that renormalise if all of them are E3 shifts.
_SUFFIX_MASK = ((1 << _COUNTS) - 1) >> 1
_MOST_SHIFTS = np.where(_COUNTS == 0, _PRECISION, _PRECISION - 1)
# Lookup by a shift count s: the mask of the s bits a decoder lane shifts in.
_ONES = (1 << _COUNTS) - 1
#: Scalars the step loops take as 0-d arrays: numpy converts a Python int
#: operand on every call.
_ONE_0D, _BELOW_TOP_0D = np.array(1), np.array(_BELOW_TOP)
#: Lookup by ``differing``: the bits a step emits, in its ``int8`` record's type.
_EMITTED = (_PRECISION - _COUNTS).astype(np.int8)
#: ``_ONE_RUNS[m]``: the ``m`` lowest bits of a 64-bit word set, and
#: ``_TOP_BITS[m]`` its ``m`` highest.
_ONE_RUNS = np.array([(1 << m) - 1 for m in range(65)], dtype=np.uint64)
_TOP_BITS = ~_ONE_RUNS[::-1]

#: Zero bytes after each lane in the decoder's buffer: a 5-byte window that
#: starts at a lane's end must read zeros, as a stream does past its end.
_LANE_PAD = 8
_WINDOW_BITS = 40


@dataclass(frozen=True, eq=False)
class BandTable:
    """A cumulative frequency table held over the band of symbols ``start .. stop - 1``.

    ``band[r, i]`` is the dense table's ``cum[r, start + i]`` for ``i`` in
    ``0 .. width``, and every symbol outside the band has its row's one
    frequency ``outside[r]``, so the dense row is, for any ``s`` in ``0 ..
    alphabet``, with ``e = s - start`` and ``i = clip(e, 0, width)``::

        cum[r, s] = band[r, i] + outside[r] * (e - i)

    The coders take it as it is; :meth:`dense` expands it.

    Example
    -------
    >>> table = BandTable(np.array([[2, 8, 9]]), np.array([1]), start=2, alphabet=5)
    >>> table.dense().tolist(), table.totals.tolist()
    ([[0, 1, 2, 8, 9, 10]], [10])
    """

    band: np.ndarray
    outside: np.ndarray
    start: int
    alphabet: int

    @property
    def width(self) -> int:
        """Symbols in the band."""
        return self.band.shape[1] - 1

    @property
    def stop(self) -> int:
        """The first symbol past the band."""
        return self.start + self.width

    @property
    def totals(self) -> np.ndarray:
        """Each row's total frequency, ``int64``."""
        return self.band[:, -1] + (self.alphabet - self.stop) * self.outside.astype(np.int64)

    def dense(self) -> np.ndarray:
        """The ``(rows, alphabet + 1)`` cumulative table, in the band's dtype."""
        outside = self.outside[:, None]
        cum = np.multiply(outside, np.arange(self.alphabet + 1), dtype=self.band.dtype)
        cum[:, self.start : self.stop + 1] = self.band
        cum[:, self.stop + 1 :] += self.band[:, -1:] - self.stop * outside
        return cum


class _KeptTable(BandTable):
    """A band table :func:`_kept_table` has validated, its arrays read-only."""


def _as_cum_table(cum_freq: BandTable | np.ndarray) -> BandTable:
    """``cum_freq`` validated, as a band table of ``int32`` counts (any admissible total fits).

    A dense table is the band table whose band is all of it.  A table
    :func:`_kept_table` returned has passed already and is returned as it is.
    """
    if isinstance(cum_freq, _KeptTable):
        return cum_freq
    if isinstance(cum_freq, BandTable):
        table = cum_freq
    else:
        cum = np.asarray(cum_freq)
        if cum.dtype != np.int32:
            cum = cum.astype(np.int64)
        if cum.ndim == 1:
            cum = cum[None, :]
        if cum.ndim != 2:
            raise ValueError("cumulative frequency table must be 1-D or 2-D")
        table = BandTable(cum, np.ones(len(cum), dtype=np.int64), 0, cum.shape[1] - 1)
    band, outside = np.asarray(table.band), np.asarray(table.outside)
    if band.dtype != np.int32:
        band = band.astype(np.int64)
    outside = outside.astype(np.int64)
    if band.ndim != 2 or band.shape[1] < 1 or outside.shape != (len(band),):
        raise ValueError("a band table holds one band row and one outside frequency per row")
    start, alphabet = int(table.start), int(table.alphabet)
    if not 0 <= start <= start + band.shape[1] - 1 <= alphabet:
        raise ValueError("the band must lie within the alphabet")
    if np.any(band[:, 0] != start * outside):
        raise ValueError("cumulative frequencies must start at 0")
    if np.any(band[:, 1:] <= band[:, :-1]) or np.any(outside < 1):
        raise ValueError("every symbol must have a strictly positive frequency")
    table = BandTable(band, outside, start, alphabet)
    if np.any(table.totals > MAX_TOTAL_FREQUENCY):
        raise ValueError("total frequency exceeds the coder's precision budget")
    return BandTable(np.ascontiguousarray(band, dtype=np.int32), outside, start, alphabet)


def _kept_table(table: BandTable) -> BandTable:
    """``table`` validated once for good, to be kept and coded with for the life of the process.

    The validated table's arrays are made read-only, so nothing can undo
    its check, and :func:`_as_cum_table` passes it from then on without
    another.  ``table`` must own its arrays: they are frozen in place.
    """
    checked = _as_cum_table(table)
    checked.band.flags.writeable = False
    checked.outside.flags.writeable = False
    return _KeptTable(checked.band, checked.outside, checked.start, checked.alphabet)


def _bounds(table: BandTable, rows: np.ndarray, offsets: np.ndarray):
    """``(cum[rows, s], cum[rows, s + 1])`` of the symbols ``s = table.start + offsets``."""
    band, width = table.band, table.width
    flat = band.ravel()
    at = rows * (width + 1)
    if not len(offsets) or (offsets.min() >= 0 and offsets.max() < width):
        at += offsets
        return flat[at], flat[1:][at]
    # Some symbols lie outside the band: the others are looked up, and those
    # take the closed form.  Each column past the band's edge adds the row's
    # out-of-band frequency, so ``cum[s + 1]`` is ``cum[s]`` plus that.
    past = (offsets < 0) | (offsets >= width)
    if width:
        at += np.where(past, 0, offsets)
        low, high = flat[at], flat[1:][at]
    else:
        low, high = np.empty_like(at, dtype=band.dtype), np.empty_like(at, dtype=band.dtype)
    past = np.flatnonzero(past)
    position, rows = offsets[past], rows[past]
    edge = np.where(position < 0, 0, width)
    frequency = table.outside[rows]
    low[past] = band[rows, edge] + frequency * (position - edge)
    high[past] = low[past] + frequency
    return low, high


def _as_count(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``, or ``ValueError``: it is not an integer, or below ``minimum``."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, not {value!r}")
    return int(value)


def _as_integers(values: Sequence[int], name: str) -> np.ndarray:
    """``values`` as a flat ``int64`` array; nothing is rounded or truncated into one."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, not {values.dtype}")
    return values.astype(np.int64, copy=False).ravel()


def _side_by_side(
    parts: Sequence[np.ndarray], lanes: Sequence[int], filler: int, dtype: type = np.int32
) -> np.ndarray:
    """Per-symbol values of every payload as one ``(steps, sum(lanes))`` matrix.

    Row ``j`` is what the lanes code at step ``j``.  A payload's lanes are
    adjacent columns, and its lane ``l`` owns its symbols ``l, l + lanes,
    ...``, so its rows are contiguous slices.  The lanes short of a symbol —
    in a payload's ragged last step, and on every step past it when another
    payload has more — get ``filler``.  Every value the coders lay out this
    way fits ``int32``: table entries and totals are at most ``2**30``.
    """
    steps = max(-(-len(values) // width) for values, width in zip(parts, lanes))
    matrix = np.full((steps, sum(lanes)), filler, dtype=dtype)
    first = 0
    for values, width in zip(parts, lanes):
        whole, ragged = divmod(len(values), width)
        matrix[:whole, first : first + width] = values[: whole * width].reshape(whole, width)
        if ragged:
            matrix[whole, first : first + ragged] = values[whole * width :]
        first += width
    return matrix


def _renormalise(low: np.ndarray, span: np.ndarray):
    """Closed-form WNC renormalisation of every lane's ``[low, low + span)``, in place.

    Returns ``(differing, shifts, low, span)``, the last two the arrays it
    was given, renormalised.  ``differing`` is the bit
    length of ``low ^ high``, ``high`` the interval's last value: the ``32 -
    differing`` bits above it are shared, and each is one E1/E2 shift that
    emits it.  Below the first differing bit (``low`` 0, ``high`` 1), every
    further bit with ``low`` 1 and ``high`` 0 is one E3 shift.  ``shifts``
    counts both kinds.  A shift of either kind doubles both ends of the
    interval and takes the same constant off both, so the span just doubles,
    and the constants are the bits of ``low`` that leave it below half.
    """
    high = low + span
    high -= _ONE_0D
    # In int64: a lookup by an int32 index array converts it first, every time.
    differing = np.frexp(low ^ high)[1].astype(np.int64)
    # Zero where the E3 run continues, so the run stops at the top set bit.
    np.bitwise_or(~low, high, out=high)
    high &= _SUFFIX_MASK[differing]
    shifts = _MOST_SHIFTS[differing]
    shifts -= np.frexp(high)[1]
    low <<= shifts
    low &= _BELOW_TOP_0D
    span <<= shifts
    return differing, shifts, low, span


def _varints(values: np.ndarray) -> bytes:
    """LEB128: seven bits a byte, least significant first, top bit = more follow."""
    if not len(values):
        return b""
    digits = values[:, None] >> (7 * np.arange(max(1, -(-int(values.max()).bit_length() // 7))))
    written = digits > 0
    written[:, 0] = True
    return ((digits & 0x7F) | ((digits >> 7 > 0) << 7))[written].astype(np.uint8).tobytes()


def _split_lanes(raw: np.ndarray, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse the lane table: ``(body, lengths)`` with one byte length per lane."""
    if lanes == 1:
        return raw, np.array([len(raw)])
    ends = np.flatnonzero(raw < 0x80)[: lanes - 1]
    if len(ends) < lanes - 1:
        raise ValueError(
            f"truncated lane table: {len(raw)} bytes hold {len(ends)} of the "
            f"{lanes - 1} lane lengths"
        )
    header = int(ends[-1]) + 1
    firsts = np.concatenate(([0], ends[:-1] + 1))
    sizes = ends - firsts + 1
    if sizes.max() > 8:
        lane = int(np.argmax(sizes > 8))
        raise ValueError(f"lane table entry of lane {lane} is longer than 8 bytes")
    digit = np.arange(header) - np.repeat(firsts, sizes)
    lengths = np.zeros(lanes, dtype=np.int64)
    lengths[:-1] = np.add.reduceat((raw[:header] & 0x7F).astype(np.int64) << (7 * digit), firsts)
    body = raw[header:]
    past = np.flatnonzero(np.cumsum(lengths) > len(body))
    if len(past):
        raise ValueError(
            f"inconsistent lane table: lane {int(past[0])} ends past the "
            f"{len(body)}-byte body"
        )
    lengths[-1] = len(body) - lengths.sum()
    return body, lengths


class _LaneCoder:
    """What both directions are built from: validated tables and the lane geometry."""

    def __init__(
        self,
        cum_freq: BandTable | np.ndarray | Sequence[BandTable | np.ndarray],
        lanes: int | Sequence[int] = 1,
        sizes: Sequence[int] | None = None,
    ) -> None:
        self._batched = sizes is not None
        if sizes is None:
            cum_freq, lanes = [cum_freq], [lanes]
        elif not len(cum_freq) == len(lanes) == len(sizes) > 0:
            raise ValueError("a batch takes one table, one lane count and one size per payload")
        # Payloads handed the same table object (a chunk's K and V) share its validation.
        validated: dict[int, np.ndarray] = {}
        for table in cum_freq:
            if id(table) not in validated:
                validated[id(table)] = _as_cum_table(table)
        self._tables: list[BandTable] = [validated[id(table)] for table in cum_freq]
        self._lanes = [_as_count(width, "lanes", 1) for width in lanes]
        self._sizes = None if sizes is None else [_as_count(size, "sizes", 0) for size in sizes]

    def _split(self, values: np.ndarray) -> list[np.ndarray]:
        """One slice of the call's flat ``values`` per payload."""
        if self._sizes is None:
            return [values]
        if sum(self._sizes) != len(values):
            raise ValueError(f"the batch holds {sum(self._sizes)} symbols, not {len(values)}")
        return np.split(values, np.cumsum(self._sizes[:-1]))

    def _contexts(self, contexts: Sequence[int] | None, num_symbols: int) -> list[np.ndarray]:
        """Per payload, the validated table row of every symbol."""
        if contexts is None:
            if any(len(table.band) > 1 for table in self._tables):
                raise ValueError("contexts are required when a table has more than one row")
            contexts = np.zeros(num_symbols, dtype=np.int64)
        else:
            contexts = _as_integers(contexts, "contexts")
            if len(contexts) != num_symbols:
                raise ValueError("contexts must have one entry per symbol")
        parts = self._split(contexts)
        for rows, table in zip(parts, self._tables):
            if len(rows) and (rows.min() < 0 or rows.max() >= len(table.band)):
                raise ValueError("context out of range")
        return parts


class ArithmeticEncoder(_LaneCoder):
    """Static-model arithmetic encoder over lock-step streams.

    Parameters
    ----------
    cum_freq:
        A :class:`BandTable`, or a dense cumulative frequency table: either
        a single one of shape ``(alphabet+1,)`` or a per-context one of shape
        ``(num_contexts, alphabet+1)``.
    lanes:
        Number of independent streams.  Lane ``l`` codes symbols ``l, l +
        lanes, ...``; the decoder must be built with the same count.
    sizes:
        Given, the coder is built for a *batch*: ``sizes[p]`` symbols in
        payload ``p``, and ``cum_freq`` and ``lanes`` hold one table and one
        lane count per payload (hand payloads of one model the same table
        object and it is validated once).  :meth:`encode` then takes the
        payloads' symbols end to end and returns one byte string per payload,
        each what a coder built for that payload alone returns: the lanes of
        all payloads advance in the same loop, nothing more.

    Example
    -------
    >>> cum = np.array([0, 6, 9, 10])
    >>> symbols = [0, 0, 1, 0, 2, 0, 0, 1, 0, 0]
    >>> data = ArithmeticEncoder(cum, lanes=4).encode(symbols)
    >>> list(data[:3])                       # byte lengths of lanes 0, 1, 2
    [1, 1, 1]
    >>> ArithmeticDecoder(cum, lanes=4).decode(data, len(symbols)).tolist()
    [0, 0, 1, 0, 2, 0, 0, 1, 0, 0]
    >>> data[3:4] == ArithmeticEncoder(cum).encode(symbols[0::4])   # lane 0 is a plain stream
    True

    Two payloads, ten symbols in four lanes and three in one, in one loop:

    >>> both = ([cum, cum], [4, 1], [10, 3])
    >>> batch = ArithmeticEncoder(*both).encode(symbols + [2, 2, 1])
    >>> batch == [data, ArithmeticEncoder(cum).encode([2, 2, 1])]
    True
    >>> [part.tolist() for part in ArithmeticDecoder(*both).decode(batch, 13)]
    [[0, 0, 1, 0, 2, 0, 0, 1, 0, 0], [2, 2, 1]]
    """

    def encode(
        self, symbols: Sequence[int], contexts: Sequence[int] | None = None
    ) -> bytes | list[bytes]:
        """Encode ``symbols`` (alphabet indices) into a byte string, or one per payload.

        ``contexts`` selects the frequency table row per symbol; omit it only
        when every table has a single row.
        """
        lanes = self._lanes
        symbols = _as_integers(symbols, "symbols")
        cum_low, cum_high, total = [], [], []
        for values, rows, table in zip(
            self._split(symbols), self._contexts(contexts, len(symbols)), self._tables
        ):
            if len(values) and (values.min() < 0 or values.max() >= table.alphabet):
                raise ValueError("symbol out of alphabet range")
            low, high = _bounds(table, rows, values - table.start)
            cum_low.append(low)
            cum_high.append(high)
            total.append(table.totals[rows])
        # The filler is a symbol of probability one: it leaves ``[low, high]``
        # as it is and emits nothing, so neither a ragged last step nor a
        # payload with fewer steps than another needs a special case.
        cum_low = _side_by_side(cum_low, lanes, filler=0)
        cum_high = _side_by_side(cum_high, lanes, filler=1)
        total = _side_by_side(total, lanes, filler=1)
        steps, num_lanes = total.shape

        # One record per (step, lane): the top ``count`` bits of ``word`` were
        # emitted, the first of them followed by ``owed`` opposite bits.  Two
        # more rows hold each lane's termination and its byte padding.  Each
        # in the narrowest type that holds it: the smaller a call's arrays,
        # the fewer pages it faults in.
        word = np.zeros((steps + 2, num_lanes), dtype=np.uint32)
        count = np.zeros((steps + 2, num_lanes), dtype=np.int8)
        owed = np.zeros((steps + 2, num_lanes), dtype=np.int32)
        low = np.zeros(num_lanes, dtype=np.int64)
        span = np.full(num_lanes, 1 << _PRECISION, dtype=np.int64)
        pending = owed[0]
        for step in range(steps):
            denominator = total[step]
            below = span * cum_low[step]
            below //= denominator
            span *= cum_high[step]
            span //= denominator
            span -= below
            low += below
            word[step] = low
            differing, shifts, low, span = _renormalise(low, span)
            emitted = _EMITTED.take(differing, out=count[step])
            # The first emitted bit settles the pending ones; E3 shifts add to them.
            pending = np.add(pending * (emitted == 0), shifts - emitted, out=owed[step + 1])
        # Termination: disambiguate the final interval with its second bit,
        # followed by the pending bits and one more.
        word[steps] = np.where(low < _QUARTER, 0, _HALF)
        count[steps] = 1
        owed[steps] += 1

        # Laid out a payload at a time: each has its own lane table and bytes.
        payloads, first = [], 0
        for width in lanes:
            block = slice(first, first + width)
            payloads.append(_pack(word[:, block], count[:, block], owed[:, block]))
            first += width
        return payloads if self._batched else payloads[0]


def _pack(word: np.ndarray, count: np.ndarray, owed: np.ndarray) -> bytes:
    """Lay the recorded bits out lane by lane, byte-align each lane, add the table.

    The records are ``(steps + 2, lanes)`` integer arrays whose last row,
    all zeros, stands for each lane's byte padding.  A record of ``count >
    0`` is the top bit ``t`` of ``word``, ``owed`` copies of ``1 - t``, then
    the next ``count - 1`` bits of ``word``.  As a number that is ``word >> (32 - count)`` plus
    ``owed`` one bits from bit ``count - 1`` up: for ``t = 0`` the ones stand
    as they are, for ``t = 1`` they carry through to ``1 0..0``.  Taken mod
    ``2**64``, the sum is the record's last 64 bits at most, and it is added
    into the one or two big-endian 64-bit words they straddle: records never
    share a bit, so adding them is OR-ing them, in any order.  Only a record
    longer than 64 bits has more, its first bit and the head of its owed run,
    written as runs of ones.
    """
    lanes = word.shape[1]
    # Per record, the bits its lane has written through it.
    emits = count > 0
    written = np.add(count, owed, dtype=np.int64)
    written *= emits
    np.cumsum(written, axis=0, out=written)
    lane_bytes = -(-written[-2] // 8)
    written += 8 * (np.cumsum(lane_bytes) - lane_bytes)
    at = np.flatnonzero(emits)
    end = written.ravel()[at]
    word, count, owed = (part.ravel()[at].astype(np.uint64) for part in (word, count, owed))

    value = word >> (_PRECISION - count)
    # Ones past bit 63 shift out, so a run longer than the word is a word of them.
    value += np.take(_ONE_RUNS, owed, mode="clip") << (count - 1)
    length = (count + owed).view(np.int64)
    shift = -end & 63
    last = (end - 1) >> 6
    words = np.zeros(-(-8 * int(lane_bytes.sum()) // 64), dtype=np.uint64)
    np.add.at(words, last, value << shift.view(np.uint64))
    # What spills into the word before; numpy shifts a long record's value by 64 to 0.
    spills = np.flatnonzero(length + shift > 64)
    np.add.at(words, last[spills] - 1, value[spills] >> (64 - shift[spills]).view(np.uint64))

    long = np.flatnonzero(length > 64)
    if len(long):
        start = end[long] - length[long]
        top = (word[long] >> (_PRECISION - 1)).view(np.int64)
        # ``t = 1``: the one bit at ``start``; ``t = 0``: the ones after it.
        _fill_ones(words, start + 1 - top, np.where(top, start + 1, end[long] - 64))
    payload = words.astype(">u8").tobytes()[: int(lane_bytes.sum())]
    return _varints(lane_bytes[: lanes - 1]) + payload


def _past_the_band(
    lower: np.ndarray,
    upper: np.ndarray,
    scaled: np.ndarray,
    outside: np.ndarray,
    stride: int,
    found: np.ndarray,
) -> None:
    """Resolve, in place, the lanes whose search fell off either end of their row's band.

    ``scaled`` is each lane's key within its row and ``outside`` its row's
    out-of-band frequency.  Below the band ``upper`` read the band's first
    entry, ``cum[start]``; above it ``lower`` read its last, ``cum[stop]``.
    Every symbol further out adds ``outside``, so the symbol lies ``shift =
    (scaled - edge) // outside`` symbols past that edge (negative below), and
    its bounds follow.  ``found`` holds the search's hit, the edge's entry
    below the band and the one past it above; the symbol's own hit is
    ``shift`` further, and one more below.
    """
    lanes = np.flatnonzero((lower < 0) | (upper >= stride))
    below = lower[lanes] < 0
    edge = np.where(below, upper[lanes], lower[lanes])
    frequency = outside[lanes]
    shift = (scaled[lanes] - edge) // frequency
    lower[lanes] = edge + shift * frequency
    upper[lanes] = lower[lanes] + frequency
    found[lanes] += shift + below


def _fill_ones(words: np.ndarray, first: np.ndarray, stop: np.ndarray) -> None:
    """Set the bits ``[first, stop)`` of every range in the big-endian ``words``.

    The ranges are disjoint and none of their bits is set yet, so adding
    each word's masks sets them.
    """
    some = stop > first
    first, stop = first[some], stop[some]
    lo, hi = first >> 6, (stop - 1) >> 6
    spans = hi - lo + 1
    index = np.arange(spans.sum()) + np.repeat(lo - np.cumsum(spans) + spans, spans)
    base = 64 * index
    begin = np.maximum(np.repeat(first, spans) - base, 0)
    finish = np.minimum(np.repeat(stop, spans) - base, 64)
    np.add.at(words, index, _TOP_BITS[finish] & ~_TOP_BITS[begin])


class ArithmeticDecoder(_LaneCoder):
    """Static-model arithmetic decoder matching :class:`ArithmeticEncoder`.

    Built like the encoder.  For a batch (``sizes`` given) :meth:`decode`
    takes one byte string per payload and returns one symbol array per
    payload.

    Hostile input fails before any symbol is decoded: a symbol count that is
    negative or not an integer, contexts outside the table and a lane table
    that does not fit its byte string each raise ``ValueError``.  Past that
    point every byte string decodes to in-alphabet symbols (a lane that ends
    early reads zeros), as with the scalar decoder.
    """

    def __init__(
        self,
        cum_freq: BandTable | np.ndarray | Sequence[BandTable | np.ndarray],
        lanes: int | Sequence[int] = 1,
        sizes: Sequence[int] | None = None,
    ) -> None:
        super().__init__(cum_freq, lanes, sizes)
        # The distinct tables' band rows end to end, row ``r`` of them offset
        # by ``r * stride``, between a sentinel below every key and one above:
        # a row holds values below ``stride``, so rows do not overlap and one
        # sorted search finds a symbol within its own row's band, or lands
        # just before or just after it (see :meth:`decode`).
        distinct = list({id(table): table for table in self._tables}.values())
        largest = max(int(table.totals.max(initial=0)) for table in distinct)
        # A power of two, so one test of ``lower | upper`` tells an edge hit.
        self._stride = 1 << largest.bit_length()
        num_rows = sum(len(table.band) for table in distinct)
        # Half the bytes to fault in and to search whenever the largest key fits.
        fits = num_rows * self._stride <= np.iinfo(np.int32).max
        entries = np.empty(
            3 + sum(table.band.size for table in distinct), dtype=np.int32 if fits else np.int64
        )
        # ``_below[hit]`` is ``_search[hit - 1]``: the same entries, one place later.
        self._search, self._below = entries[1:], entries[:-1]
        self._search[0], self._search[-1] = -1, num_rows * self._stride
        #: Per row of the search table, the frequency of a symbol outside its band.
        self._outside = np.concatenate([table.outside for table in distinct])
        #: ``id(table) -> (number of its first row, search position of that row)``.
        self._origin: dict[int, tuple[int, int]] = {}
        row, entry = 0, 1
        for table in distinct:
            band = table.band
            # Offsets in the search table's own type: an int32 add runs at twice the speed.
            offset = ((row + np.arange(len(band))) * self._stride).astype(self._search.dtype)
            block = self._search[entry : entry + band.size].reshape(band.shape)
            np.add(band, offset[:, None], out=block)
            self._origin[id(table)] = row, entry
            row += len(band)
            entry += band.size

    def decode(
        self,
        data: bytes | Sequence[bytes],
        num_symbols: int,
        contexts: Sequence[int] | None = None,
    ) -> np.ndarray | list[np.ndarray]:
        """Decode ``num_symbols`` alphabet indices from ``data``.

        For a batch ``data`` holds one byte string per payload and
        ``num_symbols`` is the total over the payloads.
        """
        lanes, search, below_hit = self._lanes, self._search, self._below
        stride, outside = self._stride, self._outside
        n = _as_count(num_symbols, "num_symbols", 0)
        streams = data if self._batched else [data]
        if len(streams) != len(lanes):
            raise ValueError(f"the batch holds {len(lanes)} payloads, not {len(streams)}")
        row_number, row_start, total = [], [], []
        for rows, table in zip(self._contexts(contexts, n), self._tables):
            row, entry = self._origin[id(table)]
            row_number.append((row + rows) * stride)
            # Where symbol 0 of each row would sit, were the row dense.
            row_start.append(entry + rows * (table.width + 1) - table.start)
            total.append(table.totals[rows])
        sizes = [len(rows) for rows in total]
        bodies, lengths = zip(
            *(
                _split_lanes(np.frombuffer(stream, dtype=np.uint8), width)
                for stream, width in zip(streams, lanes)
            )
        )
        body, lane_bytes = np.concatenate(bodies), np.concatenate(lengths)
        num_lanes = len(lane_bytes)

        # Every lane's bytes followed by zeros, and the 40-bit big-endian
        # window starting at each byte: 32 fresh bits at any bit offset.
        base = np.cumsum(lane_bytes) - lane_bytes + _LANE_PAD * np.arange(num_lanes)
        padded = np.zeros(len(body) + _LANE_PAD * num_lanes, dtype=np.int64)
        padded[np.arange(len(body)) + _LANE_PAD * np.repeat(np.arange(num_lanes), lane_bytes)] = body
        windows = (
            padded[:-4] << 32 | padded[1:-3] << 24 | padded[2:-2] << 16 | padded[3:-1] << 8
            | padded[4:]
        )

        # Every step is decoded in full: the lanes short of a symbol — in a
        # ragged last step, or past their payload's last — decode one more
        # (the first table's first row, from whatever bits they have left),
        # and it is dropped.  Any bits decode, so that is safe.
        row_start = _side_by_side(row_start, lanes, filler=0, dtype=search.dtype)
        key_offset = _side_by_side(row_number, lanes, filler=0, dtype=search.dtype)
        total = _side_by_side(total, lanes, filler=int(self._tables[0].totals[0]))
        found = np.empty_like(row_start)

        low = np.zeros(num_lanes, dtype=np.int64)
        span = np.full(num_lanes, 1 << _PRECISION, dtype=np.int64)
        # ``ahead`` is the scalar decoder's ``value - low``; it shifts like an
        # E1, E2 or E3 alike because those subtract the same from both.
        ahead = windows[base] >> (_WINDOW_BITS - _PRECISION)
        # Each lane's next unread bit, counted from the start of ``padded``,
        # and the last byte a window may start at: past its lane's end a
        # window reads zeros.
        cursor = 8 * base + _PRECISION
        last_byte = base + lane_bytes
        for step in range(len(found)):
            denominator, offset = total[step].astype(np.int64), key_offset[step]
            scaled = ((ahead + 1) * denominator - 1) // span
            key = scaled.astype(search.dtype)
            key += offset
            hit = found[step] = search.searchsorted(key, side="right")
            upper = search[hit] - offset
            lower = below_hit[hit] - offset
            # In its row's band both bounds lie in [0, stride).  A hit before
            # the band's first entry reads the row (or sentinel) below, a
            # negative ``lower``; one past its last reads the row above, an
            # ``upper`` of at least ``stride``.  Either sets a bit of -stride.
            if np.bitwise_or.reduce(lower | upper) & -stride:
                _past_the_band(
                    lower, upper, scaled, outside[offset // stride], stride, found[step]
                )
            above = span * upper // denominator
            below = span * lower // denominator
            low += below
            _, shifts, low, span = _renormalise(low, above - below)
            window = windows[np.minimum(cursor >> 3, last_byte)]
            fresh = (window >> (_WINDOW_BITS - (cursor & 7) - shifts)) & _ONES[shifts]
            ahead = ((ahead - below) << shifts) | fresh
            cursor += shifts

        # ``ahead`` never leaves ``[0, span)`` whatever the bytes, so a key never
        # leaves ``[0, total)`` of its row: any data decodes to in-alphabet symbols.
        found -= row_start + 1
        symbols, first = [], 0
        for size, width in zip(sizes, lanes):
            steps = -(-size // width)
            symbols.append(found[:steps, first : first + width].ravel()[:size])
            first += width
        return symbols if self._batched else symbols[0]

