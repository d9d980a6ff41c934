"""KV cache streaming: chunking, bandwidth adaptation, and the streamer."""

from .adaptation import (
    TEXT_CONFIG,
    AdaptationPolicy,
    FixedLevelPolicy,
    SLOAwareAdapter,
    StreamDecision,
)
from .chunking import ContextChunk, PreparedChunk, prepare_chunks, split_context
from .streamer import KVStreamer, StreamedChunk, StreamingResult

__all__ = [
    "AdaptationPolicy",
    "ContextChunk",
    "FixedLevelPolicy",
    "KVStreamer",
    "PreparedChunk",
    "SLOAwareAdapter",
    "StreamDecision",
    "StreamedChunk",
    "StreamingResult",
    "TEXT_CONFIG",
    "prepare_chunks",
    "split_context",
]
