"""Multi-tenant cluster serving frontend.

:class:`ClusterFrontend` extends the single-node
:class:`~repro.serving.engine.ContextLoadingEngine` with cluster routing: ingests are
encoded once and replicated onto the sharded store, and queries stream the KV
bitstreams from the replica node's own (possibly heterogeneous) link.  When a
replica is down the lookup fails over along the hash ring; when every replica
has lost the context the frontend falls back to the text path, so a degraded
cluster degrades TTFT, never availability.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..core.config import CacheGenConfig
from ..core.encoder import FittedCodec
from ..llm.compute_model import A40, GPUSpec
from ..llm.model_config import ModelConfig
from ..metrics.cluster import NodeSummary, TierState, tier_state
from ..network.link import NetworkLink
from ..serving.api.types import ServeRequest
from ..serving.engine import ContextLoadingEngine, Resolution
from ..serving.pipeline import IngestReport
from ..storage.eviction import EvictionPolicy, make_policy
from ..storage.kv_store import KVCacheStore
from ..storage.tiered import DiskKVStore, PlacementPolicy, TieredKVStore
from .node import StorageNode
from .sharded_store import ShardedKVStore

__all__ = ["ClusterFrontend"]


class ClusterFrontend(ContextLoadingEngine):
    """Routes a multi-tenant query stream over a sharded KV-cache cluster.

    Parameters
    ----------
    model:
        Serving model (name or :class:`ModelConfig`).
    node_links:
        Either the number of storage nodes (each on a default 3 Gbps link) or
        one :class:`NetworkLink` per node for heterogeneous clusters.
    replication_factor:
        Replicas per context.
    max_bytes_per_node:
        Capacity budget of each node's store; ``None`` means unbounded.
    eviction_policy:
        Policy name (``"lru"``, ``"lfu"``, ``"cost"``) or a factory returning a
        fresh :class:`EvictionPolicy` per node (policies hold per-node state
        and must not be shared).
    cold_bytes_per_node:
        Capacity of each node's cold (disk/object-store) tier.  ``None`` (the
        default) keeps nodes single-tier; with a cold tier attached, hot-tier
        capacity evictions demote instead of drop and cold hits promote back.
        Requires ``max_bytes_per_node`` (an unbounded hot tier never demotes).
    tier_links:
        One tier link per node modeling its disk/object-store read path;
        defaults to each :class:`~repro.storage.tiered.DiskKVStore`'s 1 Gbps
        constant link.
    placement:
        Tier-admission policy for new contexts (``"hot"``, ``"cost"``, or a
        factory returning a fresh policy per node).
    text_link:
        Link to the document store used by the text fallback; defaults to a
        fresh 3 Gbps link.
    codec:
        The offline profile to encode with, as for
        :class:`~repro.serving.engine.ContextLoadingEngine`.

    Example
    -------
    >>> frontend = ClusterFrontend("mistral-7b", node_links=4, replication_factor=2)
    >>> frontend.ingest("doc-1", num_tokens=8_000)  # doctest: +SKIP
    >>> frontend.query("doc-1", "what changed?")  # doctest: +SKIP
    """

    def __init__(
        self,
        model: ModelConfig | str,
        node_links: int | Sequence[NetworkLink] = 4,
        replication_factor: int = 2,
        max_bytes_per_node: float | None = None,
        eviction_policy: str | Callable[[], EvictionPolicy] = "lru",
        cold_bytes_per_node: float | None = None,
        tier_links: Sequence[NetworkLink] | None = None,
        placement: str | Callable[[], PlacementPolicy] = "hot",
        config: CacheGenConfig | None = None,
        gpu: GPUSpec = A40,
        base_quality: dict[str, float] | None = None,
        text_link: NetworkLink | None = None,
        vnodes: int = 64,
        codec: FittedCodec | None = None,
    ) -> None:
        super().__init__(
            model,
            link=text_link,
            config=config,
            gpu=gpu,
            base_quality=base_quality,
            codec=codec,
        )
        if isinstance(node_links, int):
            if node_links <= 0:
                raise ValueError("node_links must name at least one node")
            links: list[NetworkLink] = [NetworkLink() for _ in range(node_links)]
        else:
            links = list(node_links)
            if not links:
                raise ValueError("node_links must name at least one node")
        if cold_bytes_per_node is not None and max_bytes_per_node is None:
            raise ValueError(
                "a cold tier needs a bounded hot tier (set max_bytes_per_node)"
            )
        if tier_links is not None and len(tier_links) != len(links):
            raise ValueError("tier_links must name one link per node")
        nodes = [
            StorageNode(
                node_id=f"node-{i}",
                store=self._new_store(
                    max_bytes_per_node,
                    eviction_policy,
                    cold_bytes_per_node,
                    tier_links[i] if tier_links is not None else None,
                    placement,
                ),
                link=link,
            )
            for i, link in enumerate(links)
        ]
        self.cluster = ShardedKVStore(
            self.encoder, nodes, replication_factor=replication_factor, vnodes=vnodes
        )

    def _new_store(
        self,
        max_bytes_per_node: float | None,
        eviction_policy: str | Callable[[], EvictionPolicy],
        cold_bytes_per_node: float | None,
        tier_link: NetworkLink | None,
        placement: str | Callable[[], PlacementPolicy],
    ) -> KVCacheStore | TieredKVStore:
        hot = KVCacheStore(
            self.encoder,
            max_bytes=max_bytes_per_node,
            eviction_policy=self._new_policy(eviction_policy),
        )
        if cold_bytes_per_node is None:
            return hot
        cold = DiskKVStore(
            max_bytes=cold_bytes_per_node,
            eviction_policy=self._new_policy(eviction_policy),
            link=tier_link,
        )
        return TieredKVStore(
            hot,
            cold,
            placement=placement if isinstance(placement, str) else placement(),
        )

    @staticmethod
    def _new_policy(eviction_policy: str | Callable[[], EvictionPolicy]) -> EvictionPolicy:
        if isinstance(eviction_policy, str):
            return make_policy(eviction_policy)
        return eviction_policy()

    # ----------------------------------------------------------------- topology
    @property
    def nodes(self) -> Mapping[str, StorageNode]:
        return self.cluster.nodes

    def mark_down(self, node_id: str) -> None:
        self.cluster.mark_down(node_id)

    def mark_up(self, node_id: str) -> None:
        self.cluster.mark_up(node_id)

    def stores(self) -> dict[str, KVCacheStore | TieredKVStore]:
        return {node_id: node.store for node_id, node in self.cluster.nodes.items()}

    def __contains__(self, context_id: str) -> bool:
        return context_id in self.cluster

    def tier_counters(self) -> TierState:
        return tier_state(self.cluster.nodes.values())

    def node_summaries(self) -> list[NodeSummary]:
        return self.cluster.node_summaries()

    @property
    def resilience(self):
        return self.cluster.resilience

    def link_labels(self) -> dict[int, str]:
        labels = super().link_labels()
        for node_id, node in self.cluster.nodes.items():
            labels[id(node.link)] = node_id
            tier_link = getattr(node.store, "tier_link", None)
            if tier_link is not None:
                labels[id(tier_link)] = f"tier:{node_id}"
        return labels

    # ------------------------------------------------------------------ ingest
    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        """Prefill and encode a context once, then replicate the bitstreams.

        ``encode_delay_s`` is the modeled GPU encode time, not a wall-clock
        measurement (host time must never leak into the simulated world).
        """
        kv = self._reference_kv(context_id, num_tokens)
        placement = self.cluster.store_kv(context_id, kv)
        return IngestReport(
            **self._ingest_fields(placement.stored),
            replica_node_ids=placement.replica_node_ids,
            replicated_bytes=placement.replicated_bytes,
        )

    # ----------------------------------------------------------------- routing
    def resolve(self, request: ServeRequest) -> Resolution:
        """Route to the best live replica, else to text.

        ``request.num_tokens`` is only required for contexts the cluster has
        never ingested; lengths of evicted contexts are remembered.
        """
        lookup = self.cluster.locate(request.context_id)
        num_tokens = request.num_tokens
        if lookup.found:
            node, stored = lookup.node, lookup.stored
            assert node is not None and stored is not None
            # A cold hit reads the bitstreams off the replica's disk tier
            # before the serving link sees the first byte — one serialized
            # tier-link transfer of the default level's bitstreams.
            tier_read_s = 0.0
            if lookup.cold_hit:
                tier_read_s = node.cold_read_delay_s(
                    stored.total_bytes(self.config.default_level.name)
                )
            if not self._prefer_text_path(
                stored.num_tokens,
                node.link,
                kv_extra_s=tier_read_s + lookup.extra_delay_s,
            ):
                return Resolution(
                    use_kv=True,
                    num_tokens=stored.num_tokens,
                    link=node.link,
                    stored=stored,
                    node=node,
                    failed_over=lookup.failed_over,
                    attempted=lookup.attempted_node_ids,
                    tier=lookup.tier,
                    degraded=lookup.degraded,
                    cause=lookup.cause if lookup.degraded else None,
                    retries=lookup.retries,
                    hedged=lookup.hedged,
                    extra_delay_s=lookup.extra_delay_s,
                    tier_read_s=tier_read_s,
                    level_override=lookup.level_override,
                )
            # Short context: the text path wins even though the replica holds
            # the cache — not a miss, the node just is not asked to serve.
            num_tokens = stored.num_tokens

        # A text fallback of a context the cluster once held is a *degraded*
        # answer (the short-context preference above is not: the text path
        # simply wins there).  The cause rides on the lookup.
        known_tokens = self.cluster.known_tokens(request.context_id)
        degraded = known_tokens is not None and not lookup.found
        return self._text_resolution(
            num_tokens if num_tokens is not None else known_tokens,
            attempted=lookup.attempted_node_ids,
            degraded=degraded,
            cause=(lookup.cause or "evicted") if degraded else None,
            retries=lookup.retries,
        )
