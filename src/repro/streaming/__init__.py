"""KV cache streaming: chunking and bandwidth adaptation.

The loop that streams the chunks is the event engine's
:class:`~repro.serving.concurrent.processes.ChunkedKVLoad`.
"""

from .adaptation import (
    TEXT_CONFIG,
    AdaptationPolicy,
    FixedLevelPolicy,
    SLOAwareAdapter,
    StreamDecision,
    choose_policy,
)
from .chunking import ContextChunk, PreparedChunk, prepare_chunks, split_context

__all__ = [
    "AdaptationPolicy",
    "ContextChunk",
    "FixedLevelPolicy",
    "PreparedChunk",
    "SLOAwareAdapter",
    "StreamDecision",
    "TEXT_CONFIG",
    "choose_policy",
    "prepare_chunks",
    "split_context",
]
