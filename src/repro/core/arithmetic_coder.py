"""Lane-parallel integer arithmetic coder (Witten-Neal-Cleary).

CacheGen's bitstreams are produced by an arithmetic coder driven by the
per-(layer, channel) probability models (§5.2), and the paper makes coding
cheap by making it *parallel*: every token's stream is coded by its own CUDA
thread (§6).  This module is that structure in numpy.  A payload is split
into ``lanes`` independent streams, lane ``l`` owning the flat symbols
``l, l + lanes, l + 2 * lanes, ...``; all lanes advance one symbol per step
with one vectorised range update, so a payload costs ``ceil(n / lanes)``
numpy steps instead of ``n`` Python ones.

Each lane is a plain 32-bit Witten-Neal-Cleary stream — byte for byte what a
one-symbol-at-a-time coder writes for the lane's symbols (the test suite keeps
that scalar coder and compares, ``tests/core/test_lane_coder.py``).  What
makes a step vectorisable is that its renormalisation has a closed form.  The
shifts that emit a bit (E1/E2: ``low`` and ``high`` agree on the top bit)
always precede the shifts that defer one (E3: ``low = 01..``, ``high =
10..``), because an E3 shift leaves ``low < half <= high``.  So a step shifts
``k`` = (number of leading bits ``low`` and ``high`` share) times and emits
those bits, then ``m`` = (run of ``low`` 1 / ``high`` 0 bits below the first
differing bit) times and adds ``m`` to the pending count; both are bit lengths,
read off ``np.frexp``.  Emitted bits are recorded per step and packed once
after the loop.

Bitstream: ``lanes - 1`` lane byte-lengths as LEB128 varints (the last lane
takes the rest), then the byte-aligned lane streams in lane order.  One lane
has no table, which is the classic single-stream format.

The coder is *static*: frequencies come from a pre-computed cumulative table
(optionally a different table row per symbol context), exactly like CacheGen's
offline-profiled distributions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "encode_symbols", "decode_symbols"]

_PRECISION = 32
_FULL = (1 << _PRECISION) - 1
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
# Lookups by a shift count s: the bits of ``low``/``high`` below the top one
# that survive s shifts, the s ones shifted in, and those under a set top bit.
_SURVIVORS = _BELOW_TOP >> _COUNTS
_ONES = (1 << _COUNTS) - 1
_HIGH_FILL = _ONES | _HALF

#: Zero bytes after each lane in the decoder's buffer: a 5-byte window that
#: starts at a lane's end must read zeros, as a stream does past its end.
_LANE_PAD = 8
_WINDOW_BITS = 40


def _as_cum_table(cum_freq: np.ndarray) -> np.ndarray:
    cum = np.ascontiguousarray(cum_freq, dtype=np.int64)
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
    return cum


def _as_lane_count(lanes: int) -> int:
    if lanes != int(lanes) or lanes < 1:
        raise ValueError(f"lanes must be a positive integer, not {lanes!r}")
    return int(lanes)


def _as_contexts(contexts: Sequence[int] | None, num_symbols: int, num_rows: int) -> np.ndarray:
    if contexts is None:
        return np.zeros(num_symbols, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64).ravel()
    if len(contexts) != num_symbols:
        raise ValueError("contexts must have one entry per symbol")
    if num_symbols and (contexts.min() < 0 or contexts.max() >= num_rows):
        raise ValueError("context out of range")
    return contexts


def _by_step(values: np.ndarray, lanes: int, filler: int) -> np.ndarray:
    """Per-symbol ``values`` as ``(steps, lanes)``: row ``j`` is what the lanes code at step ``j``.

    Lane ``l`` owns symbols ``l, l + lanes, ...``, so the rows are contiguous
    slices; the lanes short of a symbol in a ragged last step get ``filler``.
    """
    steps = -(-len(values) // lanes)
    padded = np.full(steps * lanes, filler, dtype=np.int64)
    padded[: len(values)] = values
    return padded.reshape(steps, lanes)


def _renormalise(low: np.ndarray, high: np.ndarray):
    """Closed-form WNC renormalisation of every lane's ``[low, high]``.

    Returns ``(differing, shifts, low, high)``.  ``differing`` is the bit
    length of ``low ^ high``: the ``32 - differing`` bits above it are shared,
    and each is one E1/E2 shift that emits it.  Below the first differing bit
    (``low`` 0, ``high`` 1), every further bit with ``low`` 1 and ``high`` 0 is
    one E3 shift.  ``shifts`` counts both kinds, and ``low``/``high`` are the
    interval after them.
    """
    differing = np.frexp(low ^ high)[1]
    # Zero where the E3 run continues, so the run stops at the top set bit.
    run_end = np.frexp((~low | high) & _SUFFIX_MASK[differing])[1]
    shifts = _MOST_SHIFTS[differing] - run_end
    survivors = _SURVIVORS[shifts]
    low = (low & survivors) << shifts
    high = ((high & survivors) << shifts) | _HIGH_FILL[shifts]
    return differing, shifts, low, high


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


class ArithmeticEncoder:
    """Static-model arithmetic encoder over ``lanes`` lock-step streams.

    Parameters
    ----------
    cum_freq:
        Either a single cumulative frequency table of shape ``(alphabet+1,)``
        or a per-context table of shape ``(num_contexts, alphabet+1)``.
    lanes:
        Number of independent streams.  Lane ``l`` codes symbols ``l, l +
        lanes, ...``; the decoder must be built with the same count.

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
    """

    def __init__(self, cum_freq: np.ndarray, lanes: int = 1) -> None:
        self._cum = _as_cum_table(cum_freq)
        self._lanes = _as_lane_count(lanes)

    def encode(self, symbols: Sequence[int], contexts: Sequence[int] | None = None) -> bytes:
        """Encode ``symbols`` (alphabet indices) into a byte string.

        ``contexts`` selects the frequency table row per symbol; omit it when
        the encoder was built with a single table.
        """
        cum, lanes = self._cum, self._lanes
        width = cum.shape[1]
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        n = len(symbols)
        contexts = _as_contexts(contexts, n, cum.shape[0])
        if n and (symbols.min() < 0 or symbols.max() >= width - 1):
            raise ValueError("symbol out of alphabet range")

        flat = cum.ravel()
        row = contexts * width
        # The filler is a symbol of probability one: it leaves ``[low, high]``
        # as it is and emits nothing, so a ragged last step needs no special case.
        cum_low = _by_step(flat[row + symbols], lanes, filler=0)
        cum_high = _by_step(flat[row + symbols + 1], lanes, filler=1)
        total = _by_step(flat[row + width - 1], lanes, filler=1)
        steps = len(total)

        # One record per (step, lane): the top ``count`` bits of ``word`` were
        # emitted, the first of them followed by ``owed`` opposite bits.  Two
        # more rows hold each lane's termination and its byte padding.
        word = np.zeros((steps + 2, lanes), dtype=np.int64)
        count = np.zeros((steps + 2, lanes), dtype=np.int64)
        owed = np.zeros((steps + 2, lanes), dtype=np.int64)
        low = np.zeros(lanes, dtype=np.int64)
        high = np.full(lanes, _FULL, dtype=np.int64)
        pending = np.zeros(lanes, dtype=np.int64)
        for step in range(steps):
            span = high - low + 1
            high = low + span * cum_high[step] // total[step] - 1
            low = low + span * cum_low[step] // total[step]
            word[step], owed[step] = low, pending
            differing, shifts, low, high = _renormalise(low, high)
            emitted = count[step] = _PRECISION - differing
            # The first emitted bit settles the pending ones; E3 shifts add to them.
            deferred = shifts - emitted
            pending = np.where(emitted > 0, deferred, pending + deferred)
        # Termination: disambiguate the final interval with its second bit,
        # followed by the pending bits and one more.
        word[steps] = np.where(low < _QUARTER, 0, _HALF)
        count[steps] = 1
        owed[steps] = pending + 1
        return _pack(word, count, owed)


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


class ArithmeticDecoder:
    """Static-model arithmetic decoder matching :class:`ArithmeticEncoder`.

    Hostile input fails before any symbol is decoded: a negative symbol count,
    contexts outside the table and a lane table that does not fit ``data``
    each raise ``ValueError``.  Past that point every byte string decodes to
    in-alphabet symbols (a lane that ends early reads zeros), as with the
    scalar decoder.
    """

    def __init__(self, cum_freq: np.ndarray, lanes: int = 1) -> None:
        self._cum = _as_cum_table(cum_freq)
        self._lanes = _as_lane_count(lanes)
        # Row r offset by r * stride: the rows do not overlap, so one sorted
        # search over the flattened table finds a symbol within its own row.
        self._stride = int(self._cum[:, -1].max()) + 1
        self._search = (self._cum + np.arange(len(self._cum))[:, None] * self._stride).ravel()

    def decode(
        self,
        data: bytes,
        num_symbols: int,
        contexts: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Decode ``num_symbols`` alphabet indices from ``data``."""
        cum, lanes = self._cum, self._lanes
        width = cum.shape[1]
        n = int(num_symbols)
        if n < 0:
            raise ValueError(f"num_symbols must be non-negative, not {num_symbols!r}")
        contexts = _as_contexts(contexts, n, cum.shape[0])
        body, lane_bytes = _split_lanes(np.frombuffer(data, dtype=np.uint8), lanes)

        # Every lane's bytes followed by zeros, and the 40-bit big-endian
        # window starting at each byte: 32 fresh bits at any bit offset.
        base = np.cumsum(lane_bytes) - lane_bytes + _LANE_PAD * np.arange(lanes)
        padded = np.zeros(len(body) + _LANE_PAD * lanes, dtype=np.int64)
        padded[np.arange(len(body)) + _LANE_PAD * np.repeat(np.arange(lanes), lane_bytes)] = body
        windows = (
            padded[:-4] << 32 | padded[1:-3] << 24 | padded[2:-2] << 16 | padded[3:-1] << 8
            | padded[4:]
        )

        # A ragged last step is decoded in full: the lanes short of a symbol
        # decode one more (context 0, from whatever bits they have left), and
        # it is dropped.  Any bits decode, so that is safe.
        rows = _by_step(contexts, lanes, filler=0)
        flat = cum.ravel()
        key_offset = rows * self._stride
        total = flat[rows * width + width - 1]
        found = np.empty_like(rows)

        low = np.zeros(lanes, dtype=np.int64)
        high = np.full(lanes, _FULL, dtype=np.int64)
        # ``ahead`` is the scalar decoder's ``value - low``; it shifts like an
        # E1, E2 or E3 alike because those subtract the same from both.
        ahead = windows[base] >> (_WINDOW_BITS - _PRECISION)
        cursor = np.full(lanes, _PRECISION, dtype=np.int64)
        for step in range(len(rows)):
            span = high - low + 1
            denominator = total[step]
            scaled = ((ahead + 1) * denominator - 1) // span
            hit = np.searchsorted(self._search, scaled + key_offset[step], side="right")
            found[step] = hit
            below = span * flat[hit - 1] // denominator
            high = low + span * flat[hit] // denominator - 1
            low = low + below
            _, shifts, low, high = _renormalise(low, high)
            window = windows[base + np.minimum(cursor >> 3, lane_bytes)]
            fresh = (window >> (_WINDOW_BITS - (cursor & 7) - shifts)) & _ONES[shifts]
            ahead = ((ahead - below) << shifts) | fresh
            cursor += shifts

        # ``ahead`` never leaves ``[0, high - low]`` whatever the bytes, so every
        # search lands inside its own row: any data decodes to in-alphabet symbols.
        return found.ravel()[:n] - 1 - contexts * width


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
