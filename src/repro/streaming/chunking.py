"""Context chunking and offline per-chunk encoding.

CacheGen splits a context into chunks of consecutive tokens (1.5K tokens by
default) and, offline, encodes each chunk's KV at every encoding level so that
the streamer can later pick a per-chunk configuration: one of the encoding
levels, or the raw text of the chunk (to be recomputed by the LLM).  Chunks
are encoded independently, so chunks sent at different levels can be decoded
independently and concatenated (§5.3).

A prepared chunk keeps no tensor: its encodings (sizes, scales, and
bitstreams under exact coding) and, per level, the squared error its decode
would have, from which a read is scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.encoder import CacheGenEncoder, EncodedKV
from ..core.kv_cache import KVCache

__all__ = ["ContextChunk", "PreparedChunk", "split_context", "prepare_chunks"]


@dataclass
class ContextChunk:
    """One chunk of consecutive context tokens: ``[token_start, token_end)``."""

    index: int
    token_start: int
    token_end: int

    @property
    def num_tokens(self) -> int:
        return self.token_end - self.token_start


@dataclass
class PreparedChunk:
    """A context chunk encoded at every level, ready for streaming.

    Attributes
    ----------
    chunk:
        The chunk's place in the context.
    encodings:
        Mapping from encoding level name to the encoded bitstream.
    squared_error:
        Mapping from encoding level name to the per-layer float64 sum of
        squared K and V error of the chunk decoded at that level
        (:meth:`~repro.core.encoder.CacheGenEncoder.encode_with_errors`).
        The text fallback recomputes the chunk losslessly.
    text_bytes:
        Size of the chunk in text form, for the recompute fallback.
    """

    chunk: ContextChunk
    encodings: Mapping[str, EncodedKV]
    squared_error: Mapping[str, np.ndarray]
    text_bytes: int

    @property
    def num_tokens(self) -> int:
        return self.chunk.num_tokens

    def bytes_for_level(self, level_name: str) -> float:
        """Compressed bytes of this chunk at a given level."""
        return self.encodings[level_name].compressed_bytes


def split_context(kv: KVCache, chunk_tokens: int) -> list[ContextChunk]:
    """Split a context's tokens into chunks of ``chunk_tokens``."""
    if chunk_tokens <= 0:
        raise ValueError("chunk_tokens must be positive")
    tokens = kv.num_tokens
    return [
        ContextChunk(index=index, token_start=start, token_end=min(start + chunk_tokens, tokens))
        for index, start in enumerate(range(0, tokens, chunk_tokens))
    ]


def prepare_chunks(
    kv: KVCache,
    encoder: CacheGenEncoder,
    text_bytes_per_token: float | None = None,
) -> list[PreparedChunk]:
    """Offline preparation: chunk a context and encode every chunk at every level.

    Parameters
    ----------
    kv:
        The full context's KV cache (produced once by ``calculate_kv``).
    encoder:
        A fitted :class:`CacheGenEncoder`; its configuration supplies the
        chunk length and the set of encoding levels.
    text_bytes_per_token:
        Size of the text fallback per token; defaults to the encoder config.

    Example
    -------
    >>> chunks = prepare_chunks(kv, encoder)  # doctest: +SKIP
    >>> [chunk.num_tokens for chunk in chunks]  # doctest: +SKIP
    """
    cfg = encoder.config
    bytes_per_token = (
        text_bytes_per_token if text_bytes_per_token is not None else cfg.text_bytes_per_token
    )
    prepared = []
    for chunk in split_context(kv, cfg.chunk_tokens):
        encodings, squared_error = encoder.encode_with_errors(
            kv.slice_tokens(chunk.token_start, chunk.token_end)
        )
        prepared.append(
            PreparedChunk(
                chunk=chunk,
                encodings=encodings,
                squared_error=squared_error,
                text_bytes=int(round(chunk.num_tokens * bytes_per_token)),
            )
        )
    return prepared
