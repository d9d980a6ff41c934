"""Entropy-coding backend bridging the probability model and the bitstream.

Two backends are provided (see ``docs/ARCHITECTURE.md``, "Codec"):

* **Exact** — drive the lane-parallel arithmetic coder with the probability
  model's cumulative tables and produce/parse real bitstreams.  A payload of
  ``n`` symbols is coded as :func:`lane_count` ``(n)`` independent streams, the
  way the paper gives every token's stream its own CUDA thread (§6); both
  sides derive the count from ``n`` alone, so nothing about it is stored.
* **Estimated** — compute the ideal code length (the model cross-entropy) of
  the symbol stream, which is what one arithmetic-coded stream achieves up to
  a few bytes of termination overhead.  Every stored size and every figure
  uses it: the sizes the experiments were calibrated on are the estimates,
  and the exact coder's lane tables (about 5 % at the benchmark's 40-token
  chunks, 1-2 % at the paper's 1500-token ones) are not in them.

Both backends consume the same :class:`~repro.core.probability_model.SymbolProbabilityModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder
from .probability_model import SYMBOL_OFFSET, SymbolProbabilityModel

__all__ = ["EntropyCodec", "EntropyEncodedPayload", "lane_count", "LANE_SYMBOLS", "MAX_LANES"]

#: Symbols a lane codes before another lane is worth what it costs: a table
#: entry, byte padding and termination bits, 10-25 bits.  More lanes mean fewer
#: and wider numpy steps; the sweep on the ``codec-exact`` workload (CHANGES.md,
#: PR 19) puts the knee here: 64 buys ~30 % more speed for 4.5 % more bytes,
#: 256 gives back 2.5 % of the bytes for ~40 % of the speed.
LANE_SYMBOLS = 128
#: The cap bounds what the lanes cost on large payloads: at the paper's chunk
#: size (1500 tokens) a lane holds ~1350 symbols and its overhead is 1-2 %.
MAX_LANES = 1024


def lane_count(num_symbols: int) -> int:
    """How many lanes a payload of ``num_symbols`` is coded in (both directions)."""
    return min(MAX_LANES, max(1, num_symbols // LANE_SYMBOLS))


@dataclass
class EntropyEncodedPayload:
    """An entropy-coded symbol tensor.

    Attributes
    ----------
    bits:
        Size of the payload in bits.  For exact encoding this is the length of
        ``data``, lane table included; for estimated encoding it is the model
        cross-entropy.
    shape:
        Shape of the symbol tensor, needed to decode.
    exact:
        Whether ``data`` holds a real arithmetic-coded bitstream.
    data:
        The bitstream (exact mode) or ``None`` (estimated mode).
    symbols:
        In estimated mode the symbols are carried through unchanged so the
        decode path remains lossless; ``None`` in exact mode.
    """

    bits: float
    shape: tuple[int, int, int]
    exact: bool
    data: bytes | None = None
    symbols: np.ndarray | None = None

    @property
    def num_bytes(self) -> float:
        return self.bits / 8.0


class EntropyCodec:
    """Encode/decode quantized symbol tensors with a probability model.

    Parameters
    ----------
    model:
        The fitted symbol probability model (typically channel/layer grouped).
    exact:
        If True, run the real arithmetic coder; otherwise carry symbols and
        report the ideal code length.

    A codec builds the model's cumulative table on first exact use and keeps
    it, so make one per model for as long as payloads of that model are being
    coded (one :meth:`CacheGenEncoder.encode` call, say) rather than one per
    payload; nothing outlives the codec.
    """

    def __init__(self, model: SymbolProbabilityModel, exact: bool = False) -> None:
        self.model = model
        self.exact = exact
        self._table: np.ndarray | None = None
        self._coders: dict[tuple[type, int], ArithmeticEncoder | ArithmeticDecoder] = {}

    def _coder(self, kind: type, num_symbols: int):
        """The arithmetic coder of one direction for payloads of ``num_symbols``.

        Payloads of equal size (a chunk's K and V) share the coder and with it
        the validated table, which costs more to build than a chunk to code.
        """
        key = kind, lane_count(num_symbols)
        if key not in self._coders:
            if self._table is None:
                self._table = self.model.cumulative_counts()
            self._coders[key] = kind(self._table, lanes=key[1])
        return self._coders[key]

    # ----------------------------------------------------------------- encode
    def encode(self, symbols: np.ndarray) -> EntropyEncodedPayload:
        """Entropy-code a (layers, tokens, channels) symbol tensor."""
        symbols = np.asarray(symbols)
        if symbols.ndim != 3:
            raise ValueError("symbols must be 3-D (layers, tokens, channels)")
        shape = tuple(symbols.shape)
        if self.exact:
            contexts = self.model.context_ids_for(shape).ravel()
            alphabet_symbols = symbols.ravel().astype(np.int64) + SYMBOL_OFFSET
            data = self._coder(ArithmeticEncoder, symbols.size).encode(alphabet_symbols, contexts)
            return EntropyEncodedPayload(
                bits=float(len(data) * 8), shape=shape, exact=True, data=data
            )
        bits = self.model.cross_entropy_bits(symbols)
        # Symbols are clipped to +/-255, so int16 carries them losslessly at
        # half the memory of int32 — relevant when many chunk encodings at
        # several levels are kept alive by the streamer.
        return EntropyEncodedPayload(
            bits=bits, shape=shape, exact=False, symbols=symbols.astype(np.int16)
        )

    # ----------------------------------------------------------------- decode
    def decode(self, payload: EntropyEncodedPayload) -> np.ndarray:
        """Recover the symbol tensor from an encoded payload (lossless)."""
        if payload.exact:
            if payload.data is None:
                raise ValueError("exact payload is missing its bitstream")
            contexts = self.model.context_ids_for(payload.shape).ravel()
            num_symbols = int(np.prod(payload.shape))
            decoded = self._coder(ArithmeticDecoder, num_symbols).decode(
                payload.data, num_symbols, contexts
            )
            return (decoded - SYMBOL_OFFSET).reshape(payload.shape).astype(np.int32)
        if payload.symbols is None:
            raise ValueError("estimated payload is missing its symbols")
        return payload.symbols.astype(np.int32)
