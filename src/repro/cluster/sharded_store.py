"""Sharded, replicated KV cache storage over many nodes.

:class:`ShardedKVStore` is the cluster-scale sibling of the single-node
:class:`~repro.storage.KVCacheStore`: contexts are placed on ``replication_factor``
nodes chosen by a consistent-hash ring, each node bounds its own capacity with
an eviction policy, and lookups fail over along the ring's preference order
when a replica is down or has evicted the context.

The encode cost is paid once per ingest: the context is chunked and encoded a
single time and the resulting :class:`~repro.storage.StoredContext` is shared
by every replica (replicas ship bitstreams, they do not re-encode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.encoder import CacheGenEncoder
from ..core.kv_cache import KVCache
from ..storage.kv_store import CapacityError, StoredContext
from ..storage.tiered import COLD, HOT
from .hash_ring import ConsistentHashRing
from .node import StorageNode

__all__ = ["Placement", "Lookup", "ShardedKVStore"]


@dataclass(frozen=True)
class Placement:
    """Where one ingest landed."""

    context_id: str
    stored: StoredContext
    replica_node_ids: tuple[str, ...]
    skipped_node_ids: tuple[str, ...] = ()

    @property
    def bytes_per_replica(self) -> float:
        return self.stored.total_bytes()

    @property
    def replicated_bytes(self) -> float:
        """Bytes shipped to storage nodes for this ingest (all replicas)."""
        return self.bytes_per_replica * len(self.replica_node_ids)


@dataclass(frozen=True)
class Lookup:
    """Outcome of locating a context's serving replica."""

    node: StorageNode | None
    stored: StoredContext | None
    attempted_node_ids: tuple[str, ...] = ()
    #: Tier the serving replica held the context in ("hot"/"cold", None on a
    #: full miss).  A cold hit pays the node's tier link before streaming.
    tier: str | None = None
    #: Why replicas were skipped ("node_down", "corruption", "timeout",
    #: "breaker", "evicted"); ``None`` when the first choice served.
    cause: str | None = None
    #: Modeled resilience delay (timeouts, backoff, hedge wait) the serving
    #: path must charge into the request's TTFT.
    extra_delay_s: float = 0.0
    #: Retry attempts the read consumed before a replica answered.
    retries: int = 0
    #: Whether a hedged read was launched for this lookup.
    hedged: bool = False
    #: The retry budget ran out: serve degraded (cheaper level / text).
    degraded: bool = False
    #: Codec level a degraded read should stream at (``None`` = default).
    level_override: str | None = None

    @property
    def found(self) -> bool:
        return self.node is not None

    @property
    def failed_over(self) -> bool:
        """Whether the serving replica was not the first-choice node."""
        return self.found and len(self.attempted_node_ids) > 0

    @property
    def cold_hit(self) -> bool:
        return self.tier == COLD


@dataclass
class ClusterStats:
    """Running counters over the whole cluster."""

    ingests: int = 0
    replicas_written: int = 0
    replication_bytes: float = 0.0
    lookups: int = 0
    lookup_hits: int = 0
    #: Lookup hits served off a replica's cold tier (subset of lookup_hits).
    cold_lookup_hits: int = 0
    failovers: int = 0
    full_misses: int = 0
    #: Reads that detected (and evicted) a corrupted replica.
    corruption_failures: int = 0
    skipped_replicas: int = 0
    #: Lookups located at each node (the node *held* the context; whether the
    #: frontend then served from it is the node's own hits counter).
    per_node_locates: dict[str, int] = field(default_factory=dict)


class ShardedKVStore:
    """Places encoded contexts on a ring of capacity-bounded storage nodes.

    Parameters
    ----------
    encoder:
        Fitted CacheGen encoder (shared with the serving backend).
    nodes:
        The cluster's storage nodes.  Node ids must be unique.
    replication_factor:
        Number of replicas per context (capped at the node count).
    """

    def __init__(
        self,
        encoder: CacheGenEncoder,
        nodes: Sequence[StorageNode],
        replication_factor: int = 2,
    ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one storage node")
        if replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        self.encoder = encoder
        self.replication_factor = replication_factor
        self._nodes: dict[str, StorageNode] = {node.node_id: node for node in nodes}
        self.ring = ConsistentHashRing(ids)
        #: Context lengths ever ingested — survives eviction so the frontend
        #: can fall back to the text path without being told the length again.
        self._catalogue: dict[str, int] = {}
        self.stats = ClusterStats()
        #: Replicas injected as corrupted — ``(node_id, context_id)`` pairs
        #: whose next read fails the integrity check (fault injection).
        self.corrupted_replicas: set[tuple[str, str]] = set()

    #: Optional telemetry hookup (set by ``Backend.attach_tracer``): lookup
    #: failovers and full misses emit instants on ``trace_track``.
    tracer = None
    trace_track = "cluster"
    #: Optional :class:`~repro.faults.resilience.ResilienceManager` — consulted
    #: during ``locate`` for breaker gating and retry/hedge evaluation.
    resilience = None

    def _lookup_event(
        self, name: str, context_id: str, attempted: list[str], cause: str | None = None
    ) -> None:
        tracer = self.tracer
        if tracer is not None:
            args = {"context_id": context_id, "attempted": list(attempted)}
            if cause is not None:
                args["cause"] = cause
            tracer.instant(name, track=self.trace_track, category="cluster", **args)
            counter_name = "lookup_failovers" if name == "failover" else "lookup_full_misses"
            tracer.metrics.counter(
                counter_name, f"{name} events during replica lookup"
            ).inc()

    # ----------------------------------------------------------------- topology
    @property
    def nodes(self) -> Mapping[str, StorageNode]:
        return self._nodes

    def node(self, node_id: str) -> StorageNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            known = ", ".join(sorted(self._nodes))
            raise KeyError(f"unknown node {node_id!r}; cluster nodes: {known}") from None

    def mark_down(self, node_id: str) -> None:
        self.node(node_id).mark_down()

    def mark_up(self, node_id: str) -> None:
        self.node(node_id).mark_up()

    def live_nodes(self) -> list[StorageNode]:
        return [node for node in self._nodes.values() if node.up]

    # ------------------------------------------------------------------- writes
    def store_kv(self, context_id: str, kv: KVCache) -> Placement:
        """Encode a context once and place it on its replica set.

        Down nodes (and nodes too small to hold the context) are skipped in
        favour of the next node in ring order, so a degraded cluster keeps
        accepting writes as long as one live node can hold the context.
        """
        stored = StoredContext.encode(context_id, kv, self.encoder)
        target_replicas = max(min(self.replication_factor, len(self.live_nodes())), 1)
        placed: list[str] = []
        skipped: list[str] = []
        for node_id in self.ring.preference_order(context_id):
            if len(placed) == target_replicas:
                break
            node = self._nodes[node_id]
            if not node.up:
                skipped.append(node_id)
                continue
            try:
                node.store.store_prepared(stored)
            except CapacityError:
                skipped.append(node_id)
                continue
            placed.append(node_id)
        if not placed:
            raise CapacityError(
                f"no live node can hold context {context_id!r} "
                f"({stored.total_bytes():.0f} B)"
            )
        self._catalogue[context_id] = kv.num_tokens
        self.stats.ingests += 1
        self.stats.replicas_written += len(placed)
        self.stats.replication_bytes += stored.total_bytes() * len(placed)
        self.stats.skipped_replicas += len(skipped)
        return Placement(
            context_id=context_id,
            stored=stored,
            replica_node_ids=tuple(placed),
            skipped_node_ids=tuple(skipped),
        )

    # -------------------------------------------------------------------- reads
    def __contains__(self, context_id: str) -> bool:
        return any(
            node.up and context_id in node.store for node in self._nodes.values()
        )

    def replicas_for(self, context_id: str) -> list[str]:
        """Nodes currently holding the context (live or not), in ring order."""
        return [
            node_id
            for node_id in self.ring.preference_order(context_id)
            if context_id in self._nodes[node_id].store
        ]

    def locate(self, context_id: str) -> Lookup:
        """Find the replica that should serve a context, with failover.

        Walks the ring's preference order collecting every live replica that
        still holds the context (nodes beyond the replica set included —
        after a topology change a context may live on what is now a
        non-preferred node), then serves from the replica with the cheapest
        *modeled* service: estimated transfer time of the stored bitstreams
        over the node's link, scaled by the node's current queue depth, with
        ring order breaking ties.  Replicas holding the context *hot* are
        always preferred over replicas that demoted it to their cold tier —
        a cold hit pays the tier link on top of the serving link (its
        modeled cost includes the tier read) but still beats a full miss's
        re-prefill.  Serving off a cold replica promotes the context back to
        hot there.  Down nodes and nodes that lost the context ahead of the
        first live holder are recorded as attempted (that is a failover); a
        live holder passed over for a faster or less loaded replica is not.
        A live node probed without holding the context records a routing
        miss, which is what per-node hit ratios measure.
        """
        self.stats.lookups += 1
        manager = self.resilience
        attempted: list[str] = []
        cause: str | None = None
        candidates: list[tuple[StorageNode, str]] = []
        for node_id in self.ring.preference_order(context_id):
            node = self._nodes[node_id]
            if not node.up:
                if not candidates:
                    attempted.append(node_id)
                    cause = cause or "node_down"
                continue
            if manager is not None and not manager.node_allowed(node_id):
                # The node's circuit breaker is open — skip it without
                # probing (that is the point of the breaker).
                if not candidates:
                    attempted.append(node_id)
                    cause = cause or "breaker"
                continue
            tier = node.store.tier_of(context_id)
            if tier is None:
                if not candidates:
                    node.record_miss()
                    attempted.append(node_id)
                    cause = cause or "evicted"
                continue
            candidates.append((node, tier))
        if not candidates:
            self.stats.full_misses += 1
            self._lookup_event("full_miss", context_id, attempted, cause)
            return Lookup(
                node=None, stored=None, attempted_node_ids=tuple(attempted), cause=cause
            )

        level_name = self.encoder.config.default_level.name

        def service_of(node: StorageNode, node_tier: str) -> float:
            num_bytes = node.store.peek_context(context_id).total_bytes(level_name)
            service = node.estimated_service_s(num_bytes)
            if node_tier == COLD:
                service += node.store.cold_read_delay_s(num_bytes)
            return service

        def intrinsic_service_of(node: StorageNode, node_tier: str) -> float:
            # Queue-free latency for the resilience layer's absolute
            # comparisons (timeout, hedge delay): a backlogged-but-healthy
            # replica must not read as a failed one.
            num_bytes = node.store.peek_context(context_id).total_bytes(level_name)
            service = node.intrinsic_service_s(num_bytes)
            if node_tier == COLD:
                service += node.store.cold_read_delay_s(num_bytes)
            return service

        while candidates:
            tier = HOT if any(t == HOT for _, t in candidates) else COLD
            contenders = [node for node, t in candidates if t == tier]
            best = min(
                enumerate(contenders),
                key=lambda pair: (service_of(pair[1], tier), pair[0]),
            )[1]
            if self.corrupted_replicas and (best.node_id, context_id) in self.corrupted_replicas:
                # The read routed to a corrupted replica: the integrity check
                # fails, the bad copy is evicted, and the read fails over.
                self.corrupted_replicas.discard((best.node_id, context_id))
                best.store.evict(context_id)
                best.record_miss()
                self.stats.corruption_failures += 1
                attempted.append(best.node_id)
                cause = "corruption"
                if manager is not None:
                    manager.on_corruption_detected(best.node_id, context_id)
                candidates = [(node, t) for node, t in candidates if node is not best]
                continue
            try:
                stored = best.store.get_context(context_id)
            except KeyError:
                # Serving mutates tiered stores: the read's own write-back
                # flush can cascade cold-tier capacity evictions that take
                # out the very context being fetched between the membership
                # check and the read.  Count it as a routing miss on that
                # replica and fail over to the next candidate.
                best.record_miss()
                attempted.append(best.node_id)
                candidates = [(node, t) for node, t in candidates if node is not best]
                continue
            extra_delay_s = 0.0
            retries = 0
            hedged = False
            degraded = False
            level_override = None
            if manager is not None and manager.active:
                remaining = [(node, t) for node, t in candidates if node is not best]
                alternates = sorted(
                    ((node.node_id, intrinsic_service_of(node, t)) for node, t in remaining),
                    key=lambda pair: pair[1],
                )
                outcome = manager.evaluate_read(
                    context_id, best.node_id, intrinsic_service_of(best, tier), alternates
                )
                extra_delay_s = outcome.extra_delay_s
                retries = outcome.retries
                hedged = outcome.hedged
                degraded = outcome.degraded
                if outcome.node_id != best.node_id:
                    # A retry or hedge served from another replica instead.
                    switch = next(
                        (
                            (node, t)
                            for node, t in remaining
                            if node.node_id == outcome.node_id
                        ),
                        None,
                    )
                    if switch is not None:
                        try:
                            alt_stored = switch[0].store.get_context(context_id)
                        except KeyError:
                            pass
                        else:
                            attempted.append(best.node_id)
                            cause = cause or ("timeout" if retries else "hedge")
                            best, tier, stored = switch[0], switch[1], alt_stored
                if degraded:
                    cause = "timeout"
                    level_override = self._degrade_level(stored)
            self.stats.lookup_hits += 1
            if tier == COLD:
                self.stats.cold_lookup_hits += 1
            if attempted:
                self.stats.failovers += 1
                self._lookup_event("failover", context_id, attempted, cause)
            self.stats.per_node_locates[best.node_id] = (
                self.stats.per_node_locates.get(best.node_id, 0) + 1
            )
            return Lookup(
                node=best,
                stored=stored,
                attempted_node_ids=tuple(attempted),
                tier=tier,
                cause=cause,
                extra_delay_s=extra_delay_s,
                retries=retries,
                hedged=hedged,
                degraded=degraded,
                level_override=level_override,
            )
        self.stats.full_misses += 1
        self._lookup_event("full_miss", context_id, attempted, cause)
        return Lookup(
            node=None, stored=None, attempted_node_ids=tuple(attempted), cause=cause
        )

    def _degrade_level(self, stored: StoredContext) -> str | None:
        """Codec level a degraded read streams at (``None`` = default already).

        The spec-level policy may pin a level; otherwise the cheapest stored
        level by bytes wins.
        """
        manager = self.resilience
        if (
            manager is not None
            and manager.policy is not None
            and manager.policy.degrade_level is not None
        ):
            level = manager.policy.degrade_level
            return level if level != self.encoder.config.default_level.name else None
        config = self.encoder.config
        cheapest = min(config.levels, key=lambda lv: stored.total_bytes(lv.name))
        return cheapest.name if cheapest.name != config.default_level.name else None

    def known_tokens(self, context_id: str) -> int | None:
        """Length of a context ever ingested, even if since evicted."""
        return self._catalogue.get(context_id)

    # ------------------------------------------------------------------- repair
    def under_replicated(self) -> list[str]:
        """Contexts with fewer live replicas than the replication factor.

        Only contexts that still have at least one live replica qualify — a
        context with zero live copies has nothing to re-replicate from (it
        serves off the text path until its node recovers).  Sorted for
        deterministic repair scheduling.
        """
        live = self.live_nodes()
        target = max(min(self.replication_factor, len(live)), 1)
        lost: list[str] = []
        for context_id in sorted(self._catalogue):
            holders = sum(1 for node in live if context_id in node.store)
            if 0 < holders < target:
                lost.append(context_id)
        return lost

    def plan_repair(self, context_id: str) -> tuple[StorageNode, StoredContext] | None:
        """Pick the (target node, source bitstreams) of one re-replication.

        The source is the first live holder in ring order (repairs ship the
        already-encoded bitstreams, they never re-encode); the target is the
        first live non-holder in ring order with migration headroom for the
        copy.  Returns ``None`` when no source or no target qualifies.
        """
        source: StorageNode | None = None
        for node_id in self.ring.preference_order(context_id):
            node = self._nodes[node_id]
            if node.up and context_id in node.store:
                source = node
                break
        if source is None:
            return None
        stored = source.store.peek_context(context_id)
        for node_id in self.ring.preference_order(context_id):
            node = self._nodes[node_id]
            if not node.up or context_id in node.store:
                continue
            if node.store.migration_headroom_bytes() < stored.total_bytes():
                continue
            return node, stored
        return None

    # --------------------------------------------------------------- accounting
    def total_evictions(self) -> int:
        return sum(node.eviction_count for node in self._nodes.values())

    def node_summaries(self):
        return [node.summary() for node in self._nodes.values()]
