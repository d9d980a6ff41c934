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
``low`` and the interval's size.  Emitted bits are recorded per step and
packed once after the loop.

Bitstream: ``lanes - 1`` lane byte-lengths as LEB128 varints (the last lane
takes the rest), then the byte-aligned lane streams in lane order.  One lane
has no table, which is the classic single-stream format.

The coder is *static*: frequencies come from a pre-computed cumulative table
(optionally a different table row per symbol context), exactly like CacheGen's
offline-profiled distributions.  Tables are held as ``int32`` — the largest
admissible total is ``2**30`` — so a ``(1024, 511)`` model's is 2 MiB.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "encode_symbols", "decode_symbols"]

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

#: Zero bytes after each lane in the decoder's buffer: a 5-byte window that
#: starts at a lane's end must read zeros, as a stream does past its end.
_LANE_PAD = 8
_WINDOW_BITS = 40


def _as_cum_table(cum_freq: np.ndarray) -> np.ndarray:
    """``cum_freq`` validated, as a 2-D ``int32`` table (any admissible total fits)."""
    cum = np.asarray(cum_freq)
    if cum.dtype != np.int32:
        cum = cum.astype(np.int64)
    if cum.ndim == 1:
        cum = cum[None, :]
    if cum.ndim != 2:
        raise ValueError("cumulative frequency table must be 1-D or 2-D")
    if np.any(cum[:, 0] != 0):
        raise ValueError("cumulative frequencies must start at 0")
    if np.any(cum[:, 1:] <= cum[:, :-1]):
        raise ValueError("every symbol must have a strictly positive frequency")
    if np.any(cum[:, -1] > MAX_TOTAL_FREQUENCY):
        raise ValueError("total frequency exceeds the coder's precision budget")
    return np.ascontiguousarray(cum, dtype=np.int32)


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


def _side_by_side(parts: Sequence[np.ndarray], lanes: Sequence[int], filler: int) -> np.ndarray:
    """Per-symbol values of every payload as one ``(steps, sum(lanes))`` matrix.

    Row ``j`` is what the lanes code at step ``j``.  A payload's lanes are
    adjacent columns, and its lane ``l`` owns its symbols ``l, l + lanes,
    ...``, so its rows are contiguous slices.  The lanes short of a symbol —
    in a payload's ragged last step, and on every step past it when another
    payload has more — get ``filler``.
    """
    steps = max(-(-len(values) // width) for values, width in zip(parts, lanes))
    matrix = np.full((steps, sum(lanes)), filler, dtype=np.int64)
    first = 0
    for values, width in zip(parts, lanes):
        whole, ragged = divmod(len(values), width)
        matrix[:whole, first : first + width] = values[: whole * width].reshape(whole, width)
        if ragged:
            matrix[whole, first : first + ragged] = values[whole * width :]
        first += width
    return matrix


def _renormalise(low: np.ndarray, span: np.ndarray):
    """Closed-form WNC renormalisation of every lane's ``[low, low + span)``.

    Returns ``(differing, shifts, low, span)``.  ``differing`` is the bit
    length of ``low ^ high``, ``high`` the interval's last value: the ``32 -
    differing`` bits above it are shared, and each is one E1/E2 shift that
    emits it.  Below the first differing bit (``low`` 0, ``high`` 1), every
    further bit with ``low`` 1 and ``high`` 0 is one E3 shift.  ``shifts``
    counts both kinds.  A shift of either kind doubles both ends of the
    interval and takes the same constant off both, so the span just doubles,
    and the constants are the bits of ``low`` that leave it below half.
    """
    high = low + span
    high -= 1
    differing = np.frexp(low ^ high)[1]
    # Zero where the E3 run continues, so the run stops at the top set bit.
    np.bitwise_or(~low, high, out=high)
    high &= _SUFFIX_MASK[differing]
    shifts = _MOST_SHIFTS[differing] - np.frexp(high)[1]
    return differing, shifts, (low << shifts) & _BELOW_TOP, span << shifts


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
        cum_freq: np.ndarray | Sequence[np.ndarray],
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
        self._tables = [validated[id(table)] for table in cum_freq]
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
            if any(len(table) > 1 for table in self._tables):
                raise ValueError("contexts are required when a table has more than one row")
            contexts = np.zeros(num_symbols, dtype=np.int64)
        else:
            contexts = _as_integers(contexts, "contexts")
            if len(contexts) != num_symbols:
                raise ValueError("contexts must have one entry per symbol")
        parts = self._split(contexts)
        for rows, table in zip(parts, self._tables):
            if len(rows) and (rows.min() < 0 or rows.max() >= len(table)):
                raise ValueError("context out of range")
        return parts


class ArithmeticEncoder(_LaneCoder):
    """Static-model arithmetic encoder over lock-step streams.

    Parameters
    ----------
    cum_freq:
        Either a single cumulative frequency table of shape ``(alphabet+1,)``
        or a per-context table of shape ``(num_contexts, alphabet+1)``.
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
        for values, rows, cum in zip(
            self._split(symbols), self._contexts(contexts, len(symbols)), self._tables
        ):
            width = cum.shape[1]
            if len(values) and (values.min() < 0 or values.max() >= width - 1):
                raise ValueError("symbol out of alphabet range")
            flat = cum.ravel()
            at = rows * width + values
            cum_low.append(flat[at])
            cum_high.append(flat[at + 1])
            total.append(cum[:, -1][rows])
        # The filler is a symbol of probability one: it leaves ``[low, high]``
        # as it is and emits nothing, so neither a ragged last step nor a
        # payload with fewer steps than another needs a special case.
        cum_low = _side_by_side(cum_low, lanes, filler=0)
        cum_high = _side_by_side(cum_high, lanes, filler=1)
        total = _side_by_side(total, lanes, filler=1)
        steps, num_lanes = total.shape

        # One record per (step, lane): the top ``count`` bits of ``word`` were
        # emitted, the first of them followed by ``owed`` opposite bits.  Two
        # more rows hold each lane's termination and its byte padding.
        word = np.zeros((steps + 2, num_lanes), dtype=np.int64)
        count = np.zeros((steps + 2, num_lanes), dtype=np.int64)
        owed = np.zeros((steps + 2, num_lanes), dtype=np.int64)
        low = np.zeros(num_lanes, dtype=np.int64)
        span = np.full(num_lanes, 1 << _PRECISION, dtype=np.int64)
        pending = owed[0]
        for step in range(steps):
            below = span * cum_low[step] // total[step]
            span = span * cum_high[step] // total[step] - below
            low = np.add(low, below, out=word[step])
            differing, shifts, low, span = _renormalise(low, span)
            emitted = np.subtract(_PRECISION, differing, out=count[step])
            # The first emitted bit settles the pending ones; E3 shifts add to them.
            pending = np.add(pending * (emitted == 0), shifts - emitted, out=owed[step + 1])
        # Termination: disambiguate the final interval with its second bit,
        # followed by the pending bits and one more.
        word[steps] = np.where(low < _QUARTER, 0, _HALF)
        count[steps] = 1
        owed[steps] += 1

        # Laid out a payload at a time: the per-bit arrays of one fit the cache.
        payloads, first = [], 0
        for width in lanes:
            block = slice(first, first + width)
            payloads.append(_pack(word[:, block], count[:, block], owed[:, block]))
            first += width
        return payloads if self._batched else payloads[0]


def _pack(word: np.ndarray, count: np.ndarray, owed: np.ndarray) -> bytes:
    """Lay the recorded bits out lane by lane, byte-align each lane, add the table."""
    lanes = word.shape[1]
    length = np.where(count > 0, count + owed, 0)
    lane_bits = length[:-1].sum(axis=0)
    # The last row pads each lane to a byte with zero bits (a zero word).
    length[-1] = -lane_bits % 8
    lane_bytes = (lane_bits + length[-1]) // 8

    length = length.T.ravel()
    start = np.cumsum(length) - length
    # Per output bit, ``down`` starts at 31 + owed on a record's first bit and
    # falls by one a bit.  From 30 on it is the word bit to take; until then
    # the bit is the word's top one, flipped for the owed bits — everywhere
    # ``down >= 31`` except on the first bit itself.
    down = np.repeat(_PRECISION - 1 + owed.T.ravel() + start, length)
    down -= np.arange(len(down))
    bits = (np.repeat(word.T.ravel(), length) >> np.minimum(down, _PRECISION - 1)) & 1
    bits ^= down >= _PRECISION - 1
    bits[start[length > 0]] ^= 1
    return _varints(lane_bytes[: lanes - 1]) + np.packbits(bits.astype(np.uint8)).tobytes()


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
        cum_freq: np.ndarray | Sequence[np.ndarray],
        lanes: int | Sequence[int] = 1,
        sizes: Sequence[int] | None = None,
    ) -> None:
        super().__init__(cum_freq, lanes, sizes)
        # The distinct tables flattened end to end, row ``r`` of them offset by
        # ``r * stride``: a row holds values below ``stride``, so rows do not
        # overlap and one sorted search finds a symbol within its own row.
        distinct = list({id(table): table for table in self._tables}.values())
        self._stride = 1 + max(int(table[:, -1].max()) for table in distinct)
        num_rows = sum(len(table) for table in distinct)
        # Half the bytes to fault in and to search whenever the largest key fits.
        fits = num_rows * self._stride <= np.iinfo(np.int32).max
        self._search = np.empty(
            sum(table.size for table in distinct), dtype=np.int32 if fits else np.int64
        )
        #: ``id(table) -> (number of its first row, flat position of that row)``.
        self._origin: dict[int, tuple[int, int]] = {}
        row, entry = 0, 0
        for table in distinct:
            offset = (row + np.arange(len(table))) * self._stride
            block = self._search[entry : entry + table.size].reshape(table.shape)
            np.add(table, offset[:, None], out=block, casting="unsafe")
            self._origin[id(table)] = row, entry
            row += len(table)
            entry += table.size

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
        lanes, search = self._lanes, self._search
        n = _as_count(num_symbols, "num_symbols", 0)
        streams = data if self._batched else [data]
        if len(streams) != len(lanes):
            raise ValueError(f"the batch holds {len(lanes)} payloads, not {len(streams)}")
        row_number, row_start, total = [], [], []
        for rows, cum in zip(self._contexts(contexts, n), self._tables):
            row, entry = self._origin[id(cum)]
            row_number.append(row + rows)
            row_start.append(entry + rows * cum.shape[1])
            total.append(cum[:, -1][rows])
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
        row_start = _side_by_side(row_start, lanes, filler=0)
        key_offset = _side_by_side(row_number, lanes, filler=0) * self._stride
        total = _side_by_side(total, lanes, filler=int(self._tables[0][0, -1]))
        found = np.empty_like(row_start)

        low = np.zeros(num_lanes, dtype=np.int64)
        span = np.full(num_lanes, 1 << _PRECISION, dtype=np.int64)
        # ``ahead`` is the scalar decoder's ``value - low``; it shifts like an
        # E1, E2 or E3 alike because those subtract the same from both.
        ahead = windows[base] >> (_WINDOW_BITS - _PRECISION)
        cursor = np.full(num_lanes, _PRECISION, dtype=np.int64)
        for step in range(len(found)):
            denominator, offset = total[step], key_offset[step]
            scaled = ((ahead + 1) * denominator - 1) // span
            scaled += offset
            key = scaled.astype(search.dtype, copy=False)
            hit = found[step] = np.searchsorted(search, key, side="right")
            above = span * (search[hit] - offset) // denominator
            hit -= 1
            below = span * (search[hit] - offset) // denominator
            low += below
            _, shifts, low, span = _renormalise(low, above - below)
            window = windows[base + np.minimum(cursor >> 3, lane_bytes)]
            fresh = (window >> (_WINDOW_BITS - (cursor & 7) - shifts)) & _ONES[shifts]
            ahead = ((ahead - below) << shifts) | fresh
            cursor += shifts

        # ``ahead`` never leaves ``[0, span)`` whatever the bytes, so every search
        # lands inside its own row: any data decodes to in-alphabet symbols.
        found -= row_start + 1
        symbols, first = [], 0
        for size, width in zip(sizes, lanes):
            steps = -(-size // width)
            symbols.append(found[:steps, first : first + width].ravel()[:size])
            first += width
        return symbols if self._batched else symbols[0]


def encode_symbols(
    symbols: Sequence[int],
    cum_freq: np.ndarray,
    contexts: Sequence[int] | None = None,
    lanes: int = 1,
) -> bytes:
    """Convenience wrapper around :class:`ArithmeticEncoder`."""
    return ArithmeticEncoder(cum_freq, lanes).encode(symbols, contexts)


def decode_symbols(
    data: bytes,
    num_symbols: int,
    cum_freq: np.ndarray,
    contexts: Sequence[int] | None = None,
    lanes: int = 1,
) -> np.ndarray:
    """Convenience wrapper around :class:`ArithmeticDecoder`."""
    return ArithmeticDecoder(cum_freq, lanes).decode(data, num_symbols, contexts)
