"""The scalar Witten-Neal-Cleary coder: one stream, one Python step per symbol.

This was ``repro.core.arithmetic_coder`` until the lane-parallel coder replaced
it there.  Its arithmetic, bit writer and bit reader are kept as they were, as
the test-side reference: every lane of the vectorised coder must produce
exactly the bytes this loop produces for the lane's symbols, and decode what
it decodes (``tests/core/test_lane_coder.py``).  The input validation stayed
with the library coder — the tests hand this one valid tables and symbols.

:func:`pack_bits` is the lane coder's first bit assembly, one ``int64`` per
output bit, kept as the reference its word-level ``_pack`` is held to
(``tests/core/test_bit_assembly.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.arithmetic_coder import _varints

_PRECISION = 32
_FULL = (1 << _PRECISION) - 1
_HALF = 1 << (_PRECISION - 1)
_QUARTER = 1 << (_PRECISION - 2)
_THREE_QUARTERS = 3 * _QUARTER


class _BitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._current = 0
        self._filled = 0

    def write(self, bit: int) -> None:
        self._current = (self._current << 1) | (bit & 1)
        self._filled += 1
        if self._filled == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._filled = 0

    def write_with_pending(self, bit: int, pending: int) -> int:
        """Write ``bit`` followed by ``pending`` opposite bits; returns 0."""
        self.write(bit)
        opposite = 1 - bit
        for _ in range(pending):
            self.write(opposite)
        return 0

    def getvalue(self) -> bytes:
        if self._filled:
            self._bytes.append(self._current << (8 - self._filled))
            self._current = 0
            self._filled = 0
        return bytes(self._bytes)


class _BitReader:
    """Reads bits most-significant-first from a byte string (zero-padded)."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self) -> int:
        byte_index, bit_index = divmod(self._pos, 8)
        self._pos += 1
        if byte_index >= len(self._data):
            return 0
        return (self._data[byte_index] >> (7 - bit_index)) & 1


def _as_cum_table(cum_freq: np.ndarray) -> np.ndarray:
    cum = np.asarray(cum_freq, dtype=np.int64)
    return cum[None, :] if cum.ndim == 1 else cum


class ScalarEncoder:
    """Static-model arithmetic encoder over one stream."""

    def __init__(self, cum_freq: np.ndarray) -> None:
        self._cum = _as_cum_table(cum_freq)

    def encode(self, symbols: Sequence[int], contexts: Sequence[int] | None = None) -> bytes:
        cum = self._cum
        symbols = np.asarray(symbols, dtype=np.int64)
        if contexts is None:
            contexts = np.zeros(len(symbols), dtype=np.int64)
        writer = _BitWriter()
        low, high, pending = 0, _FULL, 0
        for sym, ctx in zip(symbols.tolist(), np.asarray(contexts).tolist()):
            row = cum[ctx]
            total = int(row[-1])
            span = high - low + 1
            high = low + (span * int(row[sym + 1])) // total - 1
            low = low + (span * int(row[sym])) // total
            while True:
                if high < _HALF:
                    pending = writer.write_with_pending(0, pending)
                elif low >= _HALF:
                    pending = writer.write_with_pending(1, pending)
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
        # Termination: disambiguate the final interval.
        pending += 1
        if low < _QUARTER:
            writer.write_with_pending(0, pending)
        else:
            writer.write_with_pending(1, pending)
        return writer.getvalue()


class ScalarDecoder:
    """Static-model arithmetic decoder matching :class:`ScalarEncoder`."""

    def __init__(self, cum_freq: np.ndarray) -> None:
        self._cum = _as_cum_table(cum_freq)

    def decode(
        self, data: bytes, num_symbols: int, contexts: Sequence[int] | None = None
    ) -> np.ndarray:
        cum = self._cum
        if contexts is None:
            contexts = np.zeros(num_symbols, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        reader = _BitReader(data)
        value = 0
        for _ in range(_PRECISION):
            value = (value << 1) | reader.read()
        low, high = 0, _FULL
        out = np.empty(num_symbols, dtype=np.int64)
        for i in range(num_symbols):
            row = cum[contexts[i]]
            total = int(row[-1])
            span = high - low + 1
            scaled = ((value - low + 1) * total - 1) // span
            sym = int(np.searchsorted(row, scaled, side="right")) - 1
            out[i] = sym
            high = low + (span * int(row[sym + 1])) // total - 1
            low = low + (span * int(row[sym])) // total
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    value -= _HALF
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    value -= _QUARTER
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
                value = (value << 1) | reader.read()
        return out


def pack_bits(word: np.ndarray, count: np.ndarray, owed: np.ndarray) -> bytes:
    """Lay the recorded bits out lane by lane, byte-align each lane, add the table.

    The lane encoder's records, ``(steps + 2, lanes)`` each, the last row
    zeros: the top ``count`` bits of ``word`` were emitted, the first of them
    followed by ``owed`` opposite bits.
    """
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
