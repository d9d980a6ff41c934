"""One storage node of the KV-cache cluster.

A node bundles the three things the cluster layers need to reason about
per-node behaviour: its :class:`~repro.storage.TieredKVStore` (a hot tier,
optionally backed by a cold one), the :class:`~repro.network.NetworkLink`
between this node and the GPU server (links may be heterogeneous — a near node
on a 10 Gbps LAN, a far one behind a congested WAN), and liveness plus serving
statistics.
"""

from __future__ import annotations

from ..metrics.cluster import NodeSummary
from ..network.link import NetworkLink
from ..storage.tiered import COLD, TieredKVStore

__all__ = ["StorageNode"]


class StorageNode:
    """A storage server in the cluster.

    Parameters
    ----------
    node_id:
        Stable identifier used for hash-ring placement.
    store:
        The node's KV cache store: a hot tier, with or without a disk tier
        behind the memory budget.
    link:
        Network link from this node to the GPU server.  Defaults to the
        3 Gbps constant link the paper's headline evaluation uses.
    """

    def __init__(
        self,
        node_id: str,
        store: TieredKVStore,
        link: NetworkLink | None = None,
    ) -> None:
        if not node_id:
            raise ValueError("node_id must be non-empty")
        self.node_id = node_id
        self.store = store
        self.link = link or NetworkLink()
        self.up = True
        self.requests_routed = 0
        self.hits = 0
        self.cold_hits = 0
        self.bytes_served = 0.0
        #: Requests currently being streamed from this node (modeled queue
        #: depth).  Maintained by the concurrent engine; replica selection
        #: penalises deeper queues.
        self.queue_depth = 0

    # ---------------------------------------------------------------- liveness
    def mark_down(self) -> None:
        """Take the node out of service (its contents stay, like a reboot)."""
        self.up = False

    def mark_up(self) -> None:
        self.up = True

    # ------------------------------------------------------------------ load
    def begin_serving(self) -> None:
        """A request was routed here and will stream from this node."""
        self.queue_depth += 1

    def end_serving(self) -> None:
        self.queue_depth = max(self.queue_depth - 1, 0)

    def estimated_service_s(self, num_bytes: float) -> float:
        """Modeled time to serve ``num_bytes`` from here, queue included.

        The transfer-time estimate is scaled by the number of requests already
        streaming from this node — the replica-selection cost the frontend
        minimises (lowest queue depth, fastest link).
        """
        return (1 + self.queue_depth) * self.link.estimate_transfer_time(num_bytes)

    def intrinsic_service_s(self, num_bytes: float) -> float:
        """Modeled time to serve ``num_bytes`` from here, queue excluded.

        The queue-free link transfer estimate — a calibrated latency rather
        than the relative ranking cost of :meth:`estimated_service_s`, so it
        is the one resilience timeouts and hedge delays compare against
        (local backlog is already paid as simulated queueing, not a sign the
        replica itself is slow).
        """
        return self.link.estimate_transfer_time(num_bytes)

    # -------------------------------------------------------------- accounting
    def record_hit(self, num_bytes: float, tier: str = "hot") -> None:
        """A query was served from this node's cache (from the given tier)."""
        self.requests_routed += 1
        self.hits += 1
        if tier == COLD:
            self.cold_hits += 1
        self.bytes_served += num_bytes

    def record_miss(self) -> None:
        """A query was routed here but the context was not resident."""
        self.requests_routed += 1

    @property
    def eviction_count(self) -> int:
        return self.store.eviction_count

    def summary(self) -> NodeSummary:
        store = self.store
        return NodeSummary(
            node_id=self.node_id,
            requests_routed=self.requests_routed,
            hits=self.hits,
            evictions=self.eviction_count,
            bytes_served=self.bytes_served,
            stored_bytes=store.storage_bytes(),
            contexts_resident=len(store),
            up=self.up,
            hot_hits=self.hits - self.cold_hits,
            cold_hits=self.cold_hits,
            demotions=store.stats.demotions,
            promotions=store.stats.promotions,
            hot_bytes=store.hot_bytes(),
            cold_bytes=store.cold_bytes(),
        )
