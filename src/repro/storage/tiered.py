"""The node store: a hot in-memory tier with an optional cold tier behind it.

Every cluster node holds one :class:`TieredKVStore`.  Its hot tier is a
:class:`~repro.storage.kv_store.KVCacheStore`; Appendix E prices a cheaper,
slower storage class, which a node may add as a second ``KVCacheStore``
(``cold``) behind a modeled *tier link* (disk or object-store read path,
slower than the node's serving link).

* Without a cold tier the node is its hot tier: a hot capacity eviction drops
  the context (an ``"eviction"`` on the node's trace track), a context larger
  than the hot budget raises :class:`~repro.storage.kv_store.CapacityError`,
  and placement is ignored.
* With one, hot-tier capacity evictions **demote** the victim to cold instead
  of dropping it, and a lookup that finds its context cold **promotes** it
  back to hot (updating the hot policy's recency/frequency state), paying the
  tier link once.  Cold-tier capacity evictions are true losses.
* :class:`CostAwarePlacement` — optional admission policy: contexts whose hot
  premium ($/GB-month gap between the tiers) cannot be recouped by their
  expected reuse rate are placed cold-first.

Demotions are written back asynchronously in a real system, so the victim's
bytes occupy node memory until the write-back completes.  The node models
this with an *in-flight demotion buffer*: victims enter the buffer when
evicted and drain to cold at the next serving operation
(:meth:`TieredKVStore.flush_demotions`).  Buffered bytes count against the
hot tier's migration headroom — which is what keeps a repair
(``ShardedKVStore.plan_repair``) from over-filling a node whose write-back has
not caught up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..core.kv_cache import KVCache
from ..network.bandwidth import ConstantTrace
from ..network.link import NetworkLink
from .cost import TieredCostModel
from .kv_store import CapacityError, KVCacheStore, StoredContext

__all__ = [
    "HOT",
    "COLD",
    "TierStats",
    "PlacementPolicy",
    "AlwaysHotPlacement",
    "CostAwarePlacement",
    "PLACEMENTS",
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

    demotions: int = 0
    promotions: int = 0
    demoted_bytes: float = 0.0
    promoted_bytes: float = 0.0
    #: Demotion victims too large for the whole cold tier: dropped outright
    #: (a true loss, included in the store's ``eviction_count``).
    demotion_drops: int = 0


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


#: Placement policies by the name a spec gives them.
PLACEMENTS = {"hot": AlwaysHotPlacement, "cost": CostAwarePlacement}


def make_placement(name: str) -> PlacementPolicy:
    """Instantiate a placement policy by name (``"hot"``, ``"cost"``)."""
    try:
        return PLACEMENTS[name]()
    except KeyError:
        known = ", ".join(sorted(PLACEMENTS))
        raise KeyError(f"unknown placement policy {name!r}; known: {known}") from None


class TieredKVStore:
    """A cluster node's store: a hot tier, optionally backed by a cold tier.

    Parameters
    ----------
    hot:
        The in-memory tier.  The node installs itself as its
        ``capacity_evict_sink``: each victim is demoted to ``cold``, or
        dropped when there is none.
    cold:
        The disk tier (``None`` for a memory-only node).  It needs a capacity
        bounded ``hot`` tier, or nothing would ever demote.
    placement:
        Admission policy name (``"hot"``, ``"cost"``) or instance deciding the
        tier a new context starts in (ignored without a cold tier).
    tier_link:
        Modeled disk/object-store read path to the cold tier.  Defaults to a
        constant 1 Gbps.
    """

    def __init__(
        self,
        hot: KVCacheStore,
        cold: KVCacheStore | None = None,
        placement: str | PlacementPolicy = "hot",
        tier_link: NetworkLink | None = None,
    ) -> None:
        if cold is not None and hot.max_bytes is None:
            raise ValueError("the hot tier must be capacity bounded to ever demote")
        self.hot = hot
        self.cold = cold
        self.tier_link = tier_link or NetworkLink(ConstantTrace(_DEFAULT_TIER_BPS))
        self.placement: PlacementPolicy = (
            make_placement(placement) if isinstance(placement, str) else placement
        )
        self.stats = TierStats()
        self._pending: dict[str, StoredContext] = {}
        self._pending_bytes = 0.0
        hot.capacity_evict_sink = self._on_hot_eviction

    #: Optional telemetry hookup (set by ``Backend.attach_tracer``): drops and
    #: tier traffic (demotions, promotions) emit instants on this track.
    tracer = None
    trace_track = "storage"

    def _event(
        self,
        name: str,
        context_id: str,
        num_bytes: float,
        category: str = "tier",
        counter: str | None = None,
        description: str | None = None,
    ) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                name,
                track=self.trace_track,
                category=category,
                context_id=context_id,
                bytes=num_bytes,
            )
            tracer.metrics.counter(
                counter or f"tier_{name}s", description or f"{name} events per tiered store"
            ).inc(1, store=self.trace_track)

    # -------------------------------------------------------------- tier plumbing

    def cold_read_delay_s(self, num_bytes: float) -> float:
        """Modeled tier-link time to read ``num_bytes`` from cold."""
        return self.tier_link.estimate_transfer_time(num_bytes)

    def _on_hot_eviction(self, stored: StoredContext) -> None:
        """A hot capacity eviction becomes an in-flight demotion.

        Without a cold tier the victim is dropped.  A victim larger than the
        whole cold tier can never be written back; buffering it would leave a
        context that looks resident but has nowhere to go, so it is dropped
        immediately and counted as a true loss — the same contract as a
        cold-tier capacity eviction.
        """
        size = stored.total_bytes()
        if self.cold is None:
            self._event(
                "eviction",
                stored.context_id,
                size,
                category="storage",
                counter="evictions",
                description="contexts dropped under capacity pressure",
            )
            return
        if self.cold.max_bytes is not None and size > self.cold.max_bytes:
            self.stats.demotion_drops += 1
            self._event("demotion_drop", stored.context_id, size)
            return
        self._pending[stored.context_id] = stored
        self._pending_bytes += size

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
                self._event("demotion_drop", context_id, size)
                continue
            self.stats.demotions += 1
            self.stats.demoted_bytes += size
            self._event("demotion", context_id, size)
            flushed += 1
        self._pending_bytes = 0.0
        return flushed

    # ------------------------------------------------------------------ writes
    def store_kv(self, context_id: str, kv: KVCache) -> StoredContext:
        """Encode and store a context (hot-tier encoder, tiered placement)."""
        return self.store_prepared(StoredContext.encode(context_id, kv, self.hot.encoder))

    def store_prepared(self, stored: StoredContext) -> StoredContext:
        """Store an encoded context on the tier the placement policy picks.

        With a cold tier, a context too large for the hot budget degrades to
        a cold placement instead of failing, as long as the cold tier can
        hold it.
        """
        self.flush_demotions()
        cold = self.cold
        if cold is None:
            return self.hot.store_prepared(stored)
        if self.placement.place(stored) == HOT and stored.total_bytes() <= self.hot.max_bytes:
            cold.evict(stored.context_id)
            return self.hot.store_prepared(stored)
        self.hot.evict(stored.context_id)
        return cold.store_prepared(stored)

    def evict(self, context_id: str) -> bool:
        """Explicitly remove a context from every tier."""
        in_pending = self._pending.pop(context_id, None)
        if in_pending is not None:
            self._pending_bytes -= in_pending.total_bytes()
        in_hot = self.hot.evict(context_id)
        in_cold = self.cold is not None and self.cold.evict(context_id)
        return in_hot or in_cold or in_pending is not None

    # ------------------------------------------------------------------- reads
    def tier_of(self, context_id: str) -> str | None:
        """Which tier currently holds a context (in-flight demotions count as
        cold: their next read comes off the write-back path)."""
        if context_id in self.hot:
            return HOT
        if context_id in self._pending or (self.cold is not None and context_id in self.cold):
            return COLD
        return None

    def __contains__(self, context_id: str) -> bool:
        return self.tier_of(context_id) is not None

    def __len__(self) -> int:
        # Every serving operation flushes first, so the tiers and the write
        # buffer never hold the same context twice.
        cold = 0 if self.cold is None else len(self.cold)
        return len(self.hot) + len(self._pending) + cold

    def get_context(self, context_id: str) -> StoredContext:
        """Serve a context, promoting it to hot on a cold hit.

        Promotion pays the tier link (accounted in ``stats``) and refreshes
        the hot policy's recency/frequency state via the hot store's own
        ``on_store`` notification.  A context larger than the hot budget is
        served from cold without promotion.
        """
        self.flush_demotions()
        if self.cold is None or context_id in self.hot:
            return self.hot.get_context(context_id)
        stored = self.cold.get_context(context_id)
        size = stored.total_bytes()
        if size <= self.hot.max_bytes:
            self.cold.evict(context_id)
            self.hot.store_prepared(stored)
            self.stats.promotions += 1
            self.stats.promoted_bytes += size
            self._event("promotion", context_id, size)
        return stored

    def peek_context(self, context_id: str) -> StoredContext:
        """Size/copy access without promotion or policy updates."""
        if self.cold is None or context_id in self.hot:
            return self.hot.peek_context(context_id)
        pending = self._pending.get(context_id)
        if pending is not None:
            return pending
        return self.cold.peek_context(context_id)

    def get_chunks(self, context_id: str):
        return list(self.get_context(context_id).chunks)

    # --------------------------------------------------------------- accounting
    def hot_bytes(self) -> float:
        return self.hot.storage_bytes()

    def cold_bytes(self) -> float:
        return 0.0 if self.cold is None else self.cold.storage_bytes()

    def storage_bytes(self) -> float:
        """Bytes resident on the node across both tiers and the write buffer."""
        return self.hot_bytes() + self.cold_bytes() + self._pending_bytes

    def migration_headroom_bytes(self) -> float:
        """Hot-tier bytes a migration can add without forcing an eviction.

        In-flight demotions still occupy node memory until their write-back
        lands, so they shrink the headroom — ignoring them is how a repair
        over-fills a node's hot tier.  An unbounded hot tier has infinite
        headroom.
        """
        if self.hot.max_bytes is None:
            return float("inf")
        return max(self.hot.max_bytes - self.hot_bytes() - self._pending_bytes, 0.0)

    @property
    def eviction_count(self) -> int:
        """True losses: hot-tier capacity evictions without a cold tier; with
        one, cold-tier capacity evictions plus demotion victims too large for
        the cold tier (ordinary demotions excluded)."""
        if self.cold is None:
            return self.hot.eviction_count
        return self.cold.eviction_count + self.stats.demotion_drops
