"""Two-tier KV cache storage: hot memory in front of a cold disk tier.

The in-memory :class:`~repro.storage.kv_store.KVCacheStore` is capacity
bounded, and before this module its eviction policies could only *drop*
contexts — every re-access of a dropped context re-pays the full prefill.
Appendix E already prices a cheaper, slower storage class; this module adds it
as a second tier behind every node:

* :class:`DiskKVStore` — a high-capacity store behind a modeled *tier link*
  (disk or object-store read path, slower than the node's serving link).
  Capacity evictions here are true losses.
* :class:`TieredKVStore` — composes a hot store and a cold store.  Hot-tier
  capacity evictions **demote** the victim to cold instead of dropping it, and
  a lookup that finds its context cold **promotes** it back to hot (updating
  the hot policy's recency/frequency state), paying the tier link once.
* :class:`CostAwarePlacement` — optional admission policy: contexts whose hot
  premium ($/GB-month gap between the tiers) cannot be recouped by their
  expected reuse rate are placed cold-first.

Demotions are written back asynchronously in a real system, so the victim's
bytes occupy node memory until the write-back completes.  The tiered store
models this with an *in-flight demotion buffer*: victims enter the buffer
when evicted and drain to cold at the next serving operation
(:meth:`TieredKVStore.flush_demotions`).  Buffered bytes count against the
hot tier's migration headroom — which is what keeps a repair
(``ShardedKVStore.plan_repair``) from over-filling a node whose write-back has
not caught up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

from ..core.kv_cache import KVCache
from ..network.bandwidth import ConstantTrace
from ..network.link import NetworkLink
from .cost import TieredCostModel
from .eviction import EvictionPolicy
from .kv_store import CapacityError, KVCacheStore, StoredContext

__all__ = [
    "HOT",
    "COLD",
    "TierStats",
    "DiskKVStore",
    "PlacementPolicy",
    "AlwaysHotPlacement",
    "CostAwarePlacement",
    "make_placement",
    "TieredKVStore",
]

#: Tier labels used across the cluster and serving layers.
HOT = "hot"
COLD = "cold"

#: Default tier-link bandwidth: a sequential disk / object-store read path,
#: well below the 3 Gbps serving link the paper's evaluation uses.
_DEFAULT_TIER_BPS = 1e9


@dataclass
class TierStats:
    """Running counters of tier traffic on one node."""

    hot_hits: int = 0
    cold_hits: int = 0
    demotions: int = 0
    promotions: int = 0
    demoted_bytes: float = 0.0
    promoted_bytes: float = 0.0
    #: Modeled time spent on tier-link transfers (write-backs and reads).
    demotion_transfer_s: float = 0.0
    promotion_transfer_s: float = 0.0
    #: Contexts placed directly on the cold tier by the placement policy.
    cold_placements: int = 0
    #: Demotion victims too large for the whole cold tier: dropped outright
    #: (a true loss, included in the store's ``eviction_count``).
    demotion_drops: int = 0


class DiskKVStore(KVCacheStore):
    """The cold tier: large, cheap, behind a slow tier link.

    A plain :class:`KVCacheStore` with the tier link attached — contexts enter
    via ``store_prepared`` (bitstreams are already encoded when they demote),
    so no encoder is needed.  Its own capacity evictions are real drops: a
    context evicted from cold is gone and must be re-ingested.

    Parameters
    ----------
    max_bytes:
        Cold-tier byte budget (``None`` for unbounded, the object-store case).
    eviction_policy:
        Victim picker for a bounded cold tier (defaults to LRU).
    link:
        Modeled disk/object-store read path.  Defaults to a constant 1 Gbps.
    """

    def __init__(
        self,
        max_bytes: float | None = None,
        eviction_policy: EvictionPolicy | None = None,
        link: NetworkLink | None = None,
    ) -> None:
        super().__init__(encoder=None, max_bytes=max_bytes, eviction_policy=eviction_policy)
        self.link = link or NetworkLink(ConstantTrace(_DEFAULT_TIER_BPS))

    def read_delay_s(self, num_bytes: float) -> float:
        """Modeled time to read ``num_bytes`` off this tier."""
        return self.link.estimate_transfer_time(num_bytes)


class PlacementPolicy(Protocol):
    """Decides which tier a newly stored context is admitted to."""

    def place(self, stored: StoredContext) -> str:
        """Return :data:`HOT` or :data:`COLD` for a new context."""
        ...


class AlwaysHotPlacement:
    """Default admission: every new context starts hot (LRU-style caching)."""

    def place(self, stored: StoredContext) -> str:
        return HOT


class CostAwarePlacement:
    """Admit a context hot only if its reuse rate pays the hot premium.

    The hot tier costs ``storage_usd_per_gb_month``; the cold tier costs
    ``cold_storage_usd_per_gb_month``.  Keeping a context hot is worth the
    premium only when its expected reuses per month exceed the break-even

        (hot - cold price) * stored GB / recompute cost per request

    — big, rarely reused, cheap-to-recompute contexts go straight to cold,
    leaving the hot budget for the contexts whose hits it actually buys.
    """

    def __init__(
        self,
        cost_model: TieredCostModel | None = None,
        expected_reuses_per_month: float = 100.0,
    ) -> None:
        if expected_reuses_per_month <= 0:
            raise ValueError("expected_reuses_per_month must be positive")
        self.cost_model = cost_model or TieredCostModel()
        self.expected_reuses_per_month = expected_reuses_per_month

    def hot_breakeven_reuses(self, stored: StoredContext) -> float:
        """Monthly reuses needed before the hot premium pays for itself."""
        premium = self.cost_model.storage_cost_per_month(
            stored.total_bytes()
        ) - self.cost_model.cold_storage_cost_per_month(stored.total_bytes())
        recompute = self.cost_model.recompute_cost_per_request(stored.num_tokens)
        if recompute <= 0:
            return float("inf")
        return premium / recompute

    def place(self, stored: StoredContext) -> str:
        if self.expected_reuses_per_month >= self.hot_breakeven_reuses(stored):
            return HOT
        return COLD


_PLACEMENT_FACTORIES = {
    "hot": AlwaysHotPlacement,
    "cost": CostAwarePlacement,
    "cost_aware": CostAwarePlacement,
}


def make_placement(name: str) -> PlacementPolicy:
    """Instantiate a placement policy by name (``"hot"``, ``"cost"``)."""
    try:
        return _PLACEMENT_FACTORIES[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_PLACEMENT_FACTORIES))
        raise KeyError(f"unknown placement policy {name!r}; known: {known}") from None


class TieredKVStore:
    """A hot in-memory store backed by a cold disk tier.

    Mirrors the :class:`KVCacheStore` surface the cluster layers consume
    (``store_kv``/``store_prepared``/``get_context``/``peek_context``/
    ``get_chunks``/``evict``/byte accounting), so a
    :class:`~repro.cluster.node.StorageNode` can hold either flavour.

    Parameters
    ----------
    hot:
        The capacity-bounded in-memory store (its eviction policy now picks
        *demotion* victims).  The tiered store installs itself as the hot
        store's ``capacity_evict_sink``.
    cold:
        The disk tier.
    placement:
        Admission policy name (``"hot"``, ``"cost"``) or instance deciding the
        tier a new context starts in.
    """

    def __init__(
        self,
        hot: KVCacheStore,
        cold: DiskKVStore | None = None,
        placement: str | PlacementPolicy = "hot",
    ) -> None:
        if hot.max_bytes is None:
            raise ValueError("the hot tier must be capacity bounded to ever demote")
        self.hot = hot
        # Explicit None check: an empty store is len()==0 and would be falsy.
        self.cold = DiskKVStore() if cold is None else cold
        self.placement: PlacementPolicy = (
            make_placement(placement) if isinstance(placement, str) else placement
        )
        self.stats = TierStats()
        self._pending: dict[str, StoredContext] = {}
        self._pending_bytes = 0.0
        hot.capacity_evict_sink = self._on_hot_eviction

    #: Optional telemetry hookup (set by ``Backend.attach_tracer``): tier
    #: traffic (demotions, promotions, drops) emits instants on this track.
    tracer = None
    trace_track = "storage"

    def _tier_event(self, name: str, context_id: str, num_bytes: float) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                name,
                track=self.trace_track,
                category="tier",
                context_id=context_id,
                bytes=num_bytes,
            )
            tracer.metrics.counter(
                f"tier_{name}s", f"{name} events per tiered store"
            ).inc(1, store=self.trace_track)

    # -------------------------------------------------------------- tier plumbing

    @property
    def tier_link(self) -> NetworkLink:
        return self.cold.link

    def cold_read_delay_s(self, num_bytes: float) -> float:
        """Modeled tier-link time to read ``num_bytes`` from cold."""
        return self.cold.read_delay_s(num_bytes)

    def _on_hot_eviction(self, stored: StoredContext) -> None:
        """A hot capacity eviction becomes an in-flight demotion.

        A victim larger than the whole cold tier can never be written back;
        buffering it would leave a context that looks resident but has
        nowhere to go, so it is dropped immediately and counted as a true
        loss — the same contract as a cold-tier capacity eviction.
        """
        if self.cold.max_bytes is not None and stored.total_bytes() > self.cold.max_bytes:
            self.stats.demotion_drops += 1
            self._tier_event("demotion_drop", stored.context_id, stored.total_bytes())
            return
        self._pending[stored.context_id] = stored
        self._pending_bytes += stored.total_bytes()

    def flush_demotions(self) -> int:
        """Drain the in-flight demotion buffer to the cold tier.

        Returns the number of contexts written back.  Every serving operation
        flushes first (the background writer has caught up by the time the
        next request arrives); inspection methods do not.
        """
        flushed = 0
        while self._pending:
            context_id, stored = next(iter(self._pending.items()))
            del self._pending[context_id]
            size = stored.total_bytes()
            self._pending_bytes -= size
            try:
                self.cold.store_prepared(stored)
            except CapacityError:
                # Unreachable when the cold budget is static (oversized
                # victims are dropped at demotion time), but kept so a
                # shrunk-mid-flight budget still degrades to a counted drop.
                self.stats.demotion_drops += 1
                self._tier_event("demotion_drop", context_id, size)
                continue
            self.stats.demotions += 1
            self.stats.demoted_bytes += size
            self.stats.demotion_transfer_s += self.cold.read_delay_s(size)
            self._tier_event("demotion", context_id, size)
            flushed += 1
        self._pending_bytes = 0.0
        return flushed

    # ------------------------------------------------------------------ writes
    def store_kv(self, context_id: str, kv: KVCache) -> StoredContext:
        """Encode and store a context (hot-tier encoder, tiered placement)."""
        return self.store_prepared(StoredContext.encode(context_id, kv, self.hot.encoder))

    def store_prepared(self, stored: StoredContext) -> StoredContext:
        """Store an encoded context on the tier the placement policy picks.

        A context too large for the hot budget degrades to a cold placement
        instead of failing, as long as the cold tier can hold it.
        """
        self.flush_demotions()
        tier = self.placement.place(stored)
        if tier == HOT and (
            self.hot.max_bytes is None or stored.total_bytes() <= self.hot.max_bytes
        ):
            self.cold.evict(stored.context_id)
            return self.hot.store_prepared(stored)
        self.hot.evict(stored.context_id)
        self.stats.cold_placements += 1
        return self.cold.store_prepared(stored)

    def evict(self, context_id: str) -> bool:
        """Explicitly remove a context from every tier."""
        in_pending = self._pending.pop(context_id, None)
        if in_pending is not None:
            self._pending_bytes -= in_pending.total_bytes()
        in_hot = self.hot.evict(context_id)
        in_cold = self.cold.evict(context_id)
        return in_hot or in_cold or in_pending is not None

    # ------------------------------------------------------------------- reads
    def tier_of(self, context_id: str) -> str | None:
        """Which tier currently holds a context (in-flight demotions count as
        cold: their next read comes off the write-back path)."""
        if context_id in self.hot:
            return HOT
        if context_id in self._pending or context_id in self.cold:
            return COLD
        return None

    def __contains__(self, context_id: str) -> bool:
        return self.tier_of(context_id) is not None

    def __len__(self) -> int:
        resident = set(self.hot.context_ids()) | set(self.cold.context_ids())
        resident.update(self._pending)
        return len(resident)

    def get_context(self, context_id: str) -> StoredContext:
        """Serve a context, promoting it to hot on a cold hit.

        Promotion pays the tier link (accounted in ``stats``) and refreshes
        the hot policy's recency/frequency state via the hot store's own
        ``on_store`` notification.  A context larger than the hot budget is
        served from cold without promotion.
        """
        self.flush_demotions()
        if context_id in self.hot:
            self.stats.hot_hits += 1
            return self.hot.get_context(context_id)
        stored = self.cold.get_context(context_id)
        self.stats.cold_hits += 1
        size = stored.total_bytes()
        if self.hot.max_bytes is None or size <= self.hot.max_bytes:
            self.cold.evict(context_id)
            self.hot.store_prepared(stored)
            self.stats.promotions += 1
            self.stats.promoted_bytes += size
            self.stats.promotion_transfer_s += self.cold.read_delay_s(size)
            self._tier_event("promotion", context_id, size)
        return stored

    def peek_context(self, context_id: str) -> StoredContext:
        """Size/copy access without promotion or policy updates."""
        if context_id in self.hot:
            return self.hot.peek_context(context_id)
        pending = self._pending.get(context_id)
        if pending is not None:
            return pending
        return self.cold.peek_context(context_id)

    def get_chunks(self, context_id: str):
        return list(self.get_context(context_id).chunks)

    # --------------------------------------------------------------- accounting
    def hot_bytes(self) -> float:
        return float(self.hot.storage_bytes())

    def cold_bytes(self) -> float:
        return float(self.cold.storage_bytes())

    def storage_bytes(self, per_level: bool = False) -> float | Mapping[str, float]:
        """Bytes resident on the node across both tiers and the write buffer."""
        if per_level:
            hot = dict(self.hot.storage_bytes(per_level=True))
            for name, value in self.cold.storage_bytes(per_level=True).items():
                hot[name] = hot.get(name, 0.0) + value
            return hot
        return self.hot_bytes() + self.cold_bytes() + self._pending_bytes

    def migration_headroom_bytes(self) -> float:
        """Hot-tier bytes a migration can add without forcing demotions.

        In-flight demotions still occupy node memory until their write-back
        lands, so they shrink the headroom — ignoring them is how a repair
        over-fills a node's hot tier.
        """
        assert self.hot.max_bytes is not None
        return max(self.hot.max_bytes - self.hot_bytes() - self._pending_bytes, 0.0)

    @property
    def eviction_count(self) -> int:
        """True losses: cold-tier capacity evictions plus demotion victims
        too large for the cold tier (ordinary demotions excluded)."""
        return self.cold.eviction_count + self.stats.demotion_drops

    @property
    def demotion_count(self) -> int:
        return self.stats.demotions

    @property
    def promotion_count(self) -> int:
        return self.stats.promotions
