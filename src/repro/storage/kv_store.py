"""KV cache storage: the ``store_kv`` / ``get_context`` interfaces of §6.

CacheGen keeps, per context, a dictionary mapping chunk ids to the encoded
bitstreams of the chunk's K and V tensors at every encoding level.  The store
lives on a (remote) storage server; the streamer calls ``get_context`` to
fetch a context's chunks and streams each at a chosen level.  This module
implements one in-memory *tier* with byte accounting; a cluster node
(:class:`~repro.storage.tiered.TieredKVStore`) is a hot tier plus an optional
cold one.

A tier is optionally *capacity bounded*: give it ``max_bytes`` and an
:class:`~repro.storage.eviction.EvictionPolicy` and it evicts old contexts to
make room for new ones, handing each victim to ``capacity_evict_sink`` (the
node demotes it, or drops and reports it).  Stored bytes are tracked as a
running total so ``storage_bytes()`` is O(1) no matter how many contexts are
resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.encoder import CacheGenEncoder
from ..core.kv_cache import KVCache
from ..llm.synthetic_model import GenerationResult
from ..streaming.chunking import PreparedChunk, prepare_chunks
from .eviction import EvictionPolicy, LRUPolicy

__all__ = ["StoredContext", "KVCacheStore", "CapacityError"]


class CapacityError(ValueError):
    """A single context is larger than the store's whole byte budget."""


@dataclass
class StoredContext:
    """All stored representations of one context.

    A record holds no tensor: per chunk its sizes (and bitstreams under exact
    coding) and error statistics, and per context ``variance``, which is all
    a read is scored from
    (:func:`~repro.serving.concurrent.processes.distortion`).
    """

    context_id: str
    model_name: str
    num_tokens: int
    chunks: list[PreparedChunk] = field(default_factory=list)
    #: Per-layer variance of the lossless KV cache, K and V pooled
    #: (:meth:`KVCache.variance_per_layer`).
    variance: np.ndarray | None = field(default=None, compare=False, repr=False)
    #: ``GenerationResult`` of the reads served off this record, keyed by
    #: ``(per-chunk configs, task)`` — the record is immutable once encoded, so
    #: the result is a pure function of that key.  The memo lives and dies with
    #: the record: eviction drops it, a re-ingest starts empty, and a demoted,
    #: promoted or re-replicated record (the same object) keeps its own.
    generations: dict[tuple[tuple[str, ...], str], GenerationResult] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: :meth:`total_bytes` by level name (``None``: every level), each summed
    #: at its first call; nothing changes a record's chunks once it is built.
    _bytes: dict[str | None, float] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def encode(cls, context_id: str, kv: KVCache, encoder: CacheGenEncoder) -> "StoredContext":
        """``kv`` chunked and encoded at every level, with its error statistics."""
        return cls(
            context_id=context_id,
            model_name=kv.model_name,
            num_tokens=kv.num_tokens,
            chunks=prepare_chunks(kv, encoder),
            variance=kv.variance_per_layer(),
        )

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def total_bytes(self, level_name: str | None = None) -> float:
        """Stored bytes — for one level, or for all levels when ``None``.

        Summed once per ``level_name``, chunk by chunk, and kept: reads,
        placement, replica probes and eviction ask for it again and again.
        """
        total = self._bytes.get(level_name)
        if total is None:
            total = 0.0
            for chunk in self.chunks:
                if level_name is None:
                    total += sum(enc.compressed_bytes for enc in chunk.encodings.values())
                else:
                    total += chunk.bytes_for_level(level_name)
            self._bytes[level_name] = total
        return total


class KVCacheStore:
    """One in-memory tier exposing ``store_kv`` and ``get_context``.

    Parameters
    ----------
    encoder:
        Fitted CacheGen encoder used by ``store_kv`` to chunk and encode
        contexts at every level (``None`` for a tier that is only ever handed
        encoded contexts, such as a cold tier).
    max_bytes:
        Optional byte budget over all stored contexts (all encoding levels).
        ``None`` (the default) means unbounded.
    eviction_policy:
        Policy consulted when a store over budget must pick a victim.
        Defaults to LRU when ``max_bytes`` is set.
    """

    def __init__(
        self,
        encoder: CacheGenEncoder | None,
        max_bytes: float | None = None,
        eviction_policy: EvictionPolicy | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.encoder = encoder
        self.max_bytes = max_bytes
        if eviction_policy is None and max_bytes is not None:
            eviction_policy = LRUPolicy()
        self.eviction_policy = eviction_policy
        #: Receives every context removed under capacity pressure; the node
        #: holding this tier installs it (without one, the victim is gone).
        self.capacity_evict_sink: Callable[[StoredContext], None] | None = None
        self._contexts: dict[str, StoredContext] = {}
        self._total_bytes = 0.0
        self._eviction_count = 0

    # ------------------------------------------------------------------ writes
    def store_kv(self, context_id: str, kv: KVCache) -> StoredContext:
        """Encode a context's KV cache into per-chunk bitstreams and store them.

        Mirrors the paper's ``store_kv(LLM) -> {chunk_id: encoded_KV}``: the
        KV cache is split into context chunks and each chunk is encoded at
        every encoding level.
        """
        return self.store_prepared(StoredContext.encode(context_id, kv, self.encoder))

    def store_prepared(self, stored: StoredContext) -> StoredContext:
        """Store an already-encoded context (used by replication, which must
        not pay the encode cost once per replica)."""
        size = stored.total_bytes()
        if self.max_bytes is not None and size > self.max_bytes:
            raise CapacityError(
                f"context {stored.context_id!r} ({size:.0f} B) exceeds the "
                f"store capacity ({self.max_bytes:.0f} B)"
            )
        if stored.context_id in self._contexts:
            self._remove(stored.context_id, capacity_eviction=False)
        self._contexts[stored.context_id] = stored
        self._total_bytes += size
        if self.eviction_policy is not None:
            self.eviction_policy.on_store(stored.context_id, stored)
        self._enforce_capacity(protect=stored.context_id)
        return stored

    def evict(self, context_id: str) -> bool:
        """Remove a context from the store; returns whether it was present."""
        return self._remove(context_id, capacity_eviction=False)

    def _remove(self, context_id: str, capacity_eviction: bool) -> bool:
        stored = self._contexts.pop(context_id, None)
        if stored is None:
            return False
        self._total_bytes -= stored.total_bytes()
        if not self._contexts:
            # Clamp float drift so an empty store reports exactly zero bytes.
            self._total_bytes = 0.0
        if self.eviction_policy is not None:
            self.eviction_policy.on_evict(context_id)
        if capacity_eviction:
            self._eviction_count += 1
            if self.capacity_evict_sink is not None:
                self.capacity_evict_sink(stored)
        return True

    def _enforce_capacity(self, protect: str) -> None:
        """Evict policy-selected victims until the store fits its budget.

        The just-stored context is protected: it already passed the
        single-context capacity check, so evicting everything else always
        suffices.
        """
        if self.max_bytes is None:
            return
        while self._total_bytes > self.max_bytes:
            candidates = {
                cid: ctx for cid, ctx in self._contexts.items() if cid != protect
            }
            if not candidates:
                break
            assert self.eviction_policy is not None
            victim = self.eviction_policy.select_victim(candidates)
            if victim not in candidates:
                raise RuntimeError(
                    f"eviction policy selected unknown context {victim!r}"
                )
            self._remove(victim, capacity_eviction=True)

    # ------------------------------------------------------------------- reads
    def __contains__(self, context_id: str) -> bool:
        return context_id in self._contexts

    def __len__(self) -> int:
        return len(self._contexts)

    def get_context(self, context_id: str) -> StoredContext:
        try:
            stored = self._contexts[context_id]
        except KeyError:
            raise KeyError(f"context {context_id!r} is not in the KV store") from None
        if self.eviction_policy is not None:
            self.eviction_policy.on_access(context_id)
        return stored

    def peek_context(self, context_id: str) -> StoredContext:
        """Like :meth:`get_context` but without recording an access.

        Placement logic (replica selection, rebalancing) needs to size or
        copy a context without perturbing the eviction policy's recency or
        frequency state.
        """
        try:
            return self._contexts[context_id]
        except KeyError:
            raise KeyError(f"context {context_id!r} is not in the KV store") from None

    def get_chunks(self, context_id: str) -> list[PreparedChunk]:
        """All prepared chunks of a context (what the streamer consumes)."""
        return list(self.get_context(context_id).chunks)

    # --------------------------------------------------------------- accounting
    @property
    def eviction_count(self) -> int:
        """Number of capacity-pressure evictions (explicit removals excluded)."""
        return self._eviction_count

    def storage_bytes(self) -> float:
        """Total stored bytes over all levels, kept as a running total (O(1))."""
        return self._total_bytes
