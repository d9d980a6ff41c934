"""KV cache storage: the ``store_kv`` / ``get_kv`` interfaces of §6.

CacheGen keeps, per context, a dictionary mapping chunk ids to the encoded
bitstreams of the chunk's K and V tensors at every encoding level.  The store
lives on a (remote) storage server; the streamer calls ``get_kv`` to fetch a
chunk's bitstream at a chosen level.  This module implements an in-memory
store with byte accounting.

The store is optionally *capacity bounded*: give it ``max_bytes`` and an
:class:`~repro.storage.eviction.EvictionPolicy` and it evicts old contexts to
make room for new ones, which is what the cluster nodes in
:mod:`repro.cluster` rely on.  Stored bytes are tracked as a running total so
``storage_bytes()`` is O(1) no matter how many contexts are resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..core.encoder import CacheGenEncoder, EncodedKV
from ..core.kv_cache import KVCache
from ..llm.synthetic_model import GenerationResult
from ..streaming.chunking import PreparedChunk, prepare_chunks
from .eviction import EvictionPolicy, LRUPolicy

__all__ = ["StoredContext", "KVCacheStore", "CapacityError"]


class CapacityError(ValueError):
    """A single context is larger than the store's whole byte budget."""


@dataclass
class StoredContext:
    """All stored representations of one context."""

    context_id: str
    model_name: str
    num_tokens: int
    chunks: list[PreparedChunk] = field(default_factory=list)
    #: ``GenerationResult`` of the reads served off this record, keyed by
    #: ``(per-chunk configs, task)`` — the record is immutable once encoded, so
    #: the result is a pure function of that key.  The memo lives and dies with
    #: the record: eviction drops it, a re-ingest starts empty, and a demoted,
    #: promoted or re-replicated record (the same object) keeps its own.
    generations: dict[tuple[tuple[str, ...], str], GenerationResult] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def total_bytes(self, level_name: str | None = None) -> float:
        """Stored bytes — for one level, or for all levels when ``None``."""
        total = 0.0
        for chunk in self.chunks:
            if level_name is None:
                total += sum(enc.compressed_bytes for enc in chunk.encodings.values())
            else:
                total += chunk.bytes_for_level(level_name)
        return total


class KVCacheStore:
    """In-memory KV cache store exposing ``store_kv`` and ``get_kv``.

    Parameters
    ----------
    encoder:
        Fitted CacheGen encoder used by ``store_kv`` to chunk and encode
        contexts at every level.
    max_bytes:
        Optional byte budget over all stored contexts (all encoding levels).
        ``None`` (the default) means unbounded, which preserves the original
        single-node behaviour.
    eviction_policy:
        Policy consulted when a store over budget must pick a victim.
        Defaults to LRU when ``max_bytes`` is set.
    capacity_evict_sink:
        Optional callback receiving every context removed under capacity
        pressure.  A :class:`~repro.storage.tiered.TieredKVStore` installs one
        to *demote* victims to its cold tier instead of losing them; without a
        sink, capacity evictions drop the context outright.
    """

    def __init__(
        self,
        encoder: CacheGenEncoder,
        max_bytes: float | None = None,
        eviction_policy: EvictionPolicy | None = None,
        capacity_evict_sink: Callable[[StoredContext], None] | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.encoder = encoder
        self.max_bytes = max_bytes
        if eviction_policy is None and max_bytes is not None:
            eviction_policy = LRUPolicy()
        self.eviction_policy = eviction_policy
        self.capacity_evict_sink = capacity_evict_sink
        self._contexts: dict[str, StoredContext] = {}
        self._total_bytes = 0.0
        self._eviction_count = 0
        self._evicted_ids: list[str] = []

    #: Optional telemetry hookup (set by ``Backend.attach_tracer``): capacity
    #: evictions that truly drop a context emit an instant on ``trace_track``.
    tracer = None
    trace_track = "storage"

    # ------------------------------------------------------------------ writes
    def store_kv(self, context_id: str, kv: KVCache) -> StoredContext:
        """Encode a context's KV cache into per-chunk bitstreams and store them.

        Mirrors the paper's ``store_kv(LLM) -> {chunk_id: encoded_KV}``: the
        KV cache is split into context chunks and each chunk is encoded at
        every encoding level.
        """
        stored = StoredContext(
            context_id=context_id,
            model_name=kv.model_name,
            num_tokens=kv.num_tokens,
            chunks=prepare_chunks(kv, self.encoder),
        )
        return self.store_prepared(stored)

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
            self._evicted_ids.append(context_id)
            if self.capacity_evict_sink is not None:
                # A sink turns the eviction into a demotion; the tiered store
                # emits that event itself when the write-back lands.
                self.capacity_evict_sink(stored)
            else:
                tracer = self.tracer
                if tracer is not None:
                    tracer.instant(
                        "eviction",
                        track=self.trace_track,
                        category="storage",
                        context_id=context_id,
                        bytes=stored.total_bytes(),
                    )
                    tracer.metrics.counter(
                        "evictions", "contexts dropped under capacity pressure"
                    ).inc(1, store=self.trace_track)
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

    def get_kv(self, context_id: str, chunk_id: int, level_name: str) -> EncodedKV:
        """Fetch the encoded bitstream of one chunk at one encoding level."""
        stored = self.get_context(context_id)
        if not 0 <= chunk_id < stored.num_chunks:
            raise IndexError(f"chunk {chunk_id} out of range for context {context_id!r}")
        return stored.chunks[chunk_id].encodings[level_name]

    def get_chunks(self, context_id: str) -> list[PreparedChunk]:
        """All prepared chunks of a context (what the streamer consumes)."""
        return list(self.get_context(context_id).chunks)

    # --------------------------------------------------------------- accounting
    def context_ids(self) -> Iterable[str]:
        return self._contexts.keys()

    @property
    def eviction_count(self) -> int:
        """Number of capacity-pressure evictions (explicit removals excluded)."""
        return self._eviction_count

    @property
    def evicted_context_ids(self) -> list[str]:
        """Context ids evicted under capacity pressure, oldest first."""
        return list(self._evicted_ids)

    def migration_headroom_bytes(self) -> float:
        """Bytes a migration can add without triggering capacity eviction.

        Rebalancing (``ShardedKVStore.add_node``) must fill a node, never
        churn it; this is the budget it may fill.  Unbounded stores report
        infinite headroom.
        """
        if self.max_bytes is None:
            return float("inf")
        return max(self.max_bytes - self._total_bytes, 0.0)

    def storage_bytes(self, per_level: bool = False) -> float | Mapping[str, float]:
        """Total stored bytes, optionally broken down by encoding level.

        The total is maintained incrementally on every store/evict, so the
        common (``per_level=False``) call is O(1).
        """
        if not per_level:
            return self._total_bytes
        totals: dict[str, float] = {}
        for ctx in self._contexts.values():
            for chunk in ctx.chunks:
                for name, encoded in chunk.encodings.items():
                    totals[name] = totals.get(name, 0.0) + encoded.compressed_bytes
        return totals
