"""The ingest report of the serving integration (§6).

What :meth:`~repro.serving.engine.ContextLoadingEngine.ingest` hands back:
what was stored for a context and where the replicas landed.  (The response
type is :class:`~repro.serving.api.types.ServeResponse`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["IngestReport"]


@dataclass(frozen=True)
class IngestReport:
    """Summary of storing one context's encoded KV cache."""

    context_id: str
    num_tokens: int
    num_chunks: int
    stored_bytes_per_level: Mapping[str, float]
    encode_delay_s: float
    #: Where the replicas landed.
    replica_node_ids: tuple[str, ...] = ()
    replicated_bytes: float = 0.0

    @property
    def total_stored_bytes(self) -> float:
        return float(sum(self.stored_bytes_per_level.values()))
