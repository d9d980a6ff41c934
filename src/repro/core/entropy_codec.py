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
  consecutive payloads as fit ``MAX_LANES`` together.  Every model codes
  with one cumulative table, derived and checked at its first exact call
  and kept on the model from then on, as CacheGen profiles its
  distributions once per LLM (§5.2): what a call costs besides its coding
  loops is neither a derivation nor the 511-symbol alphabet.  A table is a
  :class:`~repro.core.arithmetic_coder.BandTable`, held and searched over the
  model's fitted symbol band only
  (:meth:`~repro.core.probability_model.SymbolProbabilityModel.cumulative_band`:
  0.1-1 MiB a model where the dense table is 2 MiB; 2.1-2.5 MiB for a
  profile's six models), and the emitted bits are assembled a 64-bit word
  at a time.  Only exact coding builds the tables, so serving, which sizes
  chunks by the estimate, never holds one.  Exact payloads are checked by the
  estimated path's rule: 3-D integer tensors within ``±SYMBOL_CLIP``.
* **Estimated** — compute the ideal code length (the model cross-entropy) of
  the symbol stream, which is what one arithmetic-coded stream achieves up to
  a few bytes of termination overhead.  Every stored size and every figure
  uses it: the sizes the experiments were calibrated on are the estimates,
  and the exact coder's lane tables (about 5 % at the benchmark's 40-token
  chunks, 1-2 % at the paper's 1500-token ones) are not in them.  It builds
  no frequency table of any kind, and its payload is a size without symbols:
  only its :class:`~repro.core.encoder.EncodedKV`, which quantizes its source
  again, can be decoded.

Both backends consume the same :class:`~repro.core.probability_model.SymbolProbabilityModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder
from .probability_model import SYMBOL_OFFSET, SymbolProbabilityModel, _symbol_range

__all__ = [
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
    """An entropy-coded symbol tensor: its size, and its bitstream when exact.

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
        The bitstream (exact mode) or ``None`` (estimated mode, where the
        payload is a size only and cannot be decoded on its own).
    """

    bits: float
    shape: tuple[int, int, int]
    exact: bool
    data: bytes | None = None


def encode_payloads(
    tensors: Sequence[tuple[SymbolProbabilityModel, np.ndarray]], exact: bool
) -> list[EntropyEncodedPayload]:
    """Entropy-code ``(model, (layers, tokens, channels) symbol tensor)`` pairs, in order.

    With ``exact`` the tensors are batched through the arithmetic coder: every
    model's band table is derived once, however many tensors use it, and
    the lanes of a batch's payloads advance in one loop (see :func:`_batches`).
    Each bitstream is what the tensor gets when coded alone.  Both ways a
    tensor that is not 3-D, holds no integers (a ``bool`` is none either) or
    leaves ``±SYMBOL_CLIP`` raises the same ``ValueError``.
    """
    if not exact:
        return [
            EntropyEncodedPayload(
                bits=model.cross_entropy_bits(symbols), shape=tuple(symbols.shape), exact=False
            )
            for model, symbols in tensors
        ]
    for _, symbols in tensors:
        _symbol_range(symbols)
    models = [model for model, _ in tensors]
    shapes = [tuple(symbols.shape) for _, symbols in tensors]
    streams: list[bytes] = []
    for batch, coder in _coders(ArithmeticEncoder, models, shapes):
        symbols = _end_to_end([symbols.ravel() for _, symbols in tensors[batch]])
        streams += coder.encode(
            np.add(symbols, SYMBOL_OFFSET, dtype=np.int64), _contexts(models[batch], shapes[batch])
        )
    return [
        EntropyEncodedPayload(bits=float(len(data) * 8), shape=shape, exact=True, data=data)
        for data, shape in zip(streams, shapes)
    ]


def decode_payloads(
    payloads: Sequence[tuple[SymbolProbabilityModel, EntropyEncodedPayload]],
) -> list[np.ndarray]:
    """Recover the symbol tensors of exact ``(model, payload)`` pairs, in order (lossless).

    The bitstreams are decoded in batches, like :func:`encode_payloads` coded
    them, into ``int32`` tensors.  ``ValueError`` for an estimated payload.
    """
    for _, payload in payloads:
        if not payload.exact:
            raise ValueError(
                "an estimated payload holds only its size; decode the EncodedKV it belongs "
                "to, which quantizes its source again"
            )
        if payload.data is None:
            raise ValueError("exact payload is missing its bitstream")
    models = [model for model, _ in payloads]
    shapes = [payload.shape for _, payload in payloads]
    decoded: list[np.ndarray] = []
    for batch, coder in _coders(ArithmeticDecoder, models, shapes):
        decoded += coder.decode(
            [payload.data for _, payload in payloads[batch]],
            sum(math.prod(shape) for shape in shapes[batch]),
            _contexts(models[batch], shapes[batch]),
        )
    return [
        (part - SYMBOL_OFFSET).reshape(shape).astype(np.int32)
        for part, shape in zip(decoded, shapes)
    ]


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

    Every model codes with the table it keeps (derived at its first exact
    call), so payloads of one model hand the coder one table object.
    """
    sizes = [math.prod(shape) for shape in shapes]
    lanes = [lane_count(size) for size in sizes]
    for batch in _batches(lanes):
        tables = [model._coder_table() for model in models[batch]]
        yield batch, kind(tables, lanes[batch], sizes[batch])


def _contexts(models: Sequence[SymbolProbabilityModel], shapes: Sequence[tuple]) -> np.ndarray:
    return _end_to_end(
        [model.context_ids_for(shape).ravel() for model, shape in zip(models, shapes)]
    )


def _end_to_end(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The flat arrays of a batch's payloads as one; a batch of one is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
