"""Entropy-coding backend bridging the probability model and the bitstream.

Two backends are provided (see ``docs/ARCHITECTURE.md``, "Codec"):

* **Exact** — drive the lane-parallel arithmetic coder with the probability
  model's cumulative tables and produce/parse real bitstreams.  A payload of
  ``n`` symbols is coded as :func:`lane_count` ``(n)`` independent streams, the
  way the paper gives every token's stream its own CUDA thread (§6); both
  sides derive the count from ``n`` alone, so nothing about it is stored.
  :func:`encode_payloads` / :func:`decode_payloads` take everything one
  encode or decode call has to code — a chunk's K-delta, V-delta, K-anchor,
  V-anchor — and batch it: one lock-step loop over the lanes of as many
  consecutive payloads as fit ``MAX_LANES`` together, and one cumulative
  table per model, derived for the call and dropped with it.
* **Estimated** — compute the ideal code length (the model cross-entropy) of
  the symbol stream, which is what one arithmetic-coded stream achieves up to
  a few bytes of termination overhead.  Every stored size and every figure
  uses it: the sizes the experiments were calibrated on are the estimates,
  and the exact coder's lane tables (about 5 % at the benchmark's 40-token
  chunks, 1-2 % at the paper's 1500-token ones) are not in them.  It builds
  no frequency table of any kind.

Both backends consume the same :class:`~repro.core.probability_model.SymbolProbabilityModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder
from .probability_model import SYMBOL_OFFSET, SymbolProbabilityModel
from .quantization import narrowest_symbols

__all__ = [
    "EntropyCodec",
    "EntropyEncodedPayload",
    "encode_payloads",
    "decode_payloads",
    "lane_count",
    "LANE_SYMBOLS",
    "MAX_LANES",
]

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
        In estimated mode the symbols are carried through, value for value, so
        the decode path remains lossless: ``int8`` when their range fits it,
        else ``int16`` (see :func:`~repro.core.quantization.narrowest_symbols`);
        ``None`` in exact mode.
    """

    bits: float
    shape: tuple[int, int, int]
    exact: bool
    data: bytes | None = None
    symbols: np.ndarray | None = None

    @property
    def num_bytes(self) -> float:
        return self.bits / 8.0


def encode_payloads(
    tensors: Sequence[tuple[SymbolProbabilityModel, np.ndarray]], exact: bool
) -> list[EntropyEncodedPayload]:
    """Entropy-code ``(model, (layers, tokens, channels) symbol tensor)`` pairs, in order.

    With ``exact`` the tensors are batched through the arithmetic coder: every
    model's cumulative table is derived once, however many tensors use it, and
    the lanes of a batch's payloads advance in one loop (see :func:`_batches`).
    Each bitstream is what the tensor gets when coded alone.
    """
    if not exact:
        # Every chunk is kept at every level, so the carried symbols are most
        # of what a store holds: int8 when their range fits (every symbol at
        # the default levels does), int16 otherwise, which holds the whole
        # +/-255 alphabet.  Scoring validates the range before it narrows, and
        # a tensor already at that width is carried as it is, not copied.
        return [
            EntropyEncodedPayload(
                bits=model.cross_entropy_bits(symbols),
                shape=tuple(symbols.shape),
                exact=False,
                symbols=narrowest_symbols(symbols),
            )
            for model, symbols in tensors
        ]
    if any(symbols.ndim != 3 for _, symbols in tensors):
        raise ValueError("symbols must be 3-D (layers, tokens, channels)")
    models = [model for model, _ in tensors]
    shapes = [tuple(symbols.shape) for _, symbols in tensors]
    streams: list[bytes] = []
    for batch, coder in _coders(ArithmeticEncoder, models, shapes):
        symbols = _end_to_end([symbols.ravel() for _, symbols in tensors[batch]])
        streams += coder.encode(
            symbols.astype(np.int64) + SYMBOL_OFFSET, _contexts(models[batch], shapes[batch])
        )
    return [
        EntropyEncodedPayload(bits=float(len(data) * 8), shape=shape, exact=True, data=data)
        for data, shape in zip(streams, shapes)
    ]


def decode_payloads(
    payloads: Sequence[tuple[SymbolProbabilityModel, EntropyEncodedPayload]],
) -> list[np.ndarray]:
    """Recover the symbol tensors of ``(model, payload)`` pairs, in order (lossless).

    The bitstreams among them are decoded in batches, like
    :func:`encode_payloads` coded them, into ``int32`` tensors.  An estimated
    payload costs no table and no copy: the ``int8`` or ``int16`` tensor it
    carries is returned as it is, to be read and not written.
    """
    for _, payload in payloads:
        if payload.exact and payload.data is None:
            raise ValueError("exact payload is missing its bitstream")
        if not payload.exact and payload.symbols is None:
            raise ValueError("estimated payload is missing its symbols")
    coded = [(model, payload) for model, payload in payloads if payload.exact]
    models = [model for model, _ in coded]
    shapes = [payload.shape for _, payload in coded]
    from_bitstreams: list[np.ndarray] = []
    for batch, coder in _coders(ArithmeticDecoder, models, shapes):
        from_bitstreams += coder.decode(
            [payload.data for _, payload in coded[batch]],
            sum(math.prod(shape) for shape in shapes[batch]),
            _contexts(models[batch], shapes[batch]),
        )
    decoded = (
        (part - SYMBOL_OFFSET).reshape(shape).astype(np.int32)
        for part, shape in zip(from_bitstreams, shapes)
    )
    return [next(decoded) if payload.exact else payload.symbols for _, payload in payloads]


def _batches(lanes: Sequence[int]) -> list[slice]:
    """Runs of consecutive payloads, by lane count, that are coded in one loop each.

    Payloads share a loop while their lanes fit ``MAX_LANES``.  What sharing
    saves is a step's fixed cost, 25-30 µs of numpy dispatch however few the
    lanes; a lane costs about 0.09 µs a step, so by a thousand lanes there is
    little left to save.  And only a payload at the lane cap has many more
    steps than the rest: it fills a loop alone instead of dragging the others'
    lanes through them (the four payloads of a 1500-token chunk in one
    4,096-lane loop measured 2-4x slower than in four).
    """
    batches, first, width = [], 0, 0
    for payload, count in enumerate(lanes):
        if payload > first and width + count > MAX_LANES:
            batches.append(slice(first, payload))
            first, width = payload, 0
        width += count
    return batches + [slice(first, len(lanes))] if lanes else []


def _coders(kind: type, models: Sequence[SymbolProbabilityModel], shapes: Sequence[tuple]):
    """``(batch, its arithmetic coder of one direction)`` over one payload per ``(model, shape)``.

    Every model's table is derived once for all batches, when the first of
    them is asked for, and dropped with the last.
    """
    tables: dict[int, np.ndarray] = {}
    for model in models:
        if id(model) not in tables:
            tables[id(model)] = model.cumulative_counts()
    sizes = [math.prod(shape) for shape in shapes]
    lanes = [lane_count(size) for size in sizes]
    for batch in _batches(lanes):
        yield batch, kind([tables[id(model)] for model in models[batch]], lanes[batch], sizes[batch])


def _contexts(models: Sequence[SymbolProbabilityModel], shapes: Sequence[tuple]) -> np.ndarray:
    return _end_to_end(
        [model.context_ids_for(shape).ravel() for model, shape in zip(models, shapes)]
    )


def _end_to_end(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The flat arrays of a batch's payloads as one; a batch of one is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class EntropyCodec:
    """Encode/decode quantized symbol tensors with one probability model.

    Parameters
    ----------
    model:
        The fitted symbol probability model (typically channel/layer grouped).
    exact:
        If True, run the real arithmetic coder; otherwise carry symbols and
        report the ideal code length.

    Each exact call derives the model's cumulative table and drops it; to code
    several payloads for the price of one table and one loop, hand them to
    :func:`encode_payloads` / :func:`decode_payloads` together, as
    :meth:`CacheGenEncoder.encode` does with a chunk's.
    """

    def __init__(self, model: SymbolProbabilityModel, exact: bool = False) -> None:
        self.model = model
        self.exact = exact

    def encode(self, symbols: np.ndarray) -> EntropyEncodedPayload:
        """Entropy-code a (layers, tokens, channels) symbol tensor."""
        return encode_payloads([(self.model, np.asarray(symbols))], self.exact)[0]

    def decode(self, payload: EntropyEncodedPayload) -> np.ndarray:
        """Recover the symbol tensor from an encoded payload (lossless)."""
        return decode_payloads([(self.model, payload)])[0].astype(np.int32, copy=False)
