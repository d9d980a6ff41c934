"""Pluggable eviction policies for capacity-bounded KV cache stores.

A production KV-cache server cannot hold every context ever ingested: encoded
caches are large (hundreds of MB for long contexts) and node capacity is
finite.  :class:`~repro.storage.kv_store.KVCacheStore` therefore accepts a
``max_bytes`` budget and an :class:`EvictionPolicy` deciding *which* context to
drop when a new one does not fit.

Two policies are provided:

* :class:`LRUPolicy` — evict the least recently used context (the classic
  cache-network placement policy, e.g. Icarus' LRU node caches);
* :class:`CostAwarePolicy` — evict the context whose *retention value* is
  lowest, where value is the recompute cost saved per month (observed access
  rate x Appendix E's per-request recompute price) divided by its monthly
  storage cost.  Cheap-to-recompute, rarely-used, bulky contexts go first.

Policies are notified by the store on every store/access/evict, so they keep
their own bookkeeping; they never mutate the store themselves.  All ordering
uses a logical clock (a monotonic counter), keeping simulations deterministic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping

from .cost import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .kv_store import StoredContext

__all__ = ["EvictionPolicy", "LRUPolicy", "CostAwarePolicy", "POLICIES", "make_policy"]


class EvictionPolicy(ABC):
    """Decides which stored context a full store should evict next."""

    def __init__(self) -> None:
        self._clock = 0
        self._last_used: dict[str, int] = {}

    # ------------------------------------------------------------ notifications
    def on_store(self, context_id: str, stored: "StoredContext") -> None:
        """A context was (re)stored; storing counts as a use."""
        self._touch(context_id)

    def on_access(self, context_id: str) -> None:
        """A stored context was read."""
        self._touch(context_id)

    def on_evict(self, context_id: str) -> None:
        """A context left the store (capacity eviction or explicit removal)."""
        self._last_used.pop(context_id, None)

    # ----------------------------------------------------------------- decision
    @abstractmethod
    def select_victim(self, contexts: Mapping[str, "StoredContext"]) -> str:
        """Pick the context id to evict from the candidates in ``contexts``."""

    # ------------------------------------------------------------------ helpers
    def _touch(self, context_id: str) -> None:
        self._clock += 1
        self._last_used[context_id] = self._clock

    def _recency(self, context_id: str) -> int:
        """Logical time of the last use (0 if never seen)."""
        return self._last_used.get(context_id, 0)


class LRUPolicy(EvictionPolicy):
    """Evict the least recently used context."""

    def select_victim(self, contexts: Mapping[str, "StoredContext"]) -> str:
        if not contexts:
            raise ValueError("no contexts to evict")
        return min(contexts, key=self._recency)


class CostAwarePolicy(EvictionPolicy):
    """Evict the context with the lowest recompute-savings per storage dollar.

    Appendix E's cost model prices both sides of the trade: keeping a context
    costs ``storage_usd_per_gb_month``; dropping it costs one prefill's worth
    of inference per future access.  The policy scores each candidate as

        value = uses * recompute_usd_per_request(num_tokens)
                / storage_usd_per_month(stored_bytes)

    and evicts the minimum — a long context with many accesses is worth far
    more than its bytes, while a short, cold context is recomputed for less
    than it costs to keep.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        super().__init__()
        self.cost_model = cost_model or CostModel()
        self._uses: dict[str, int] = {}

    def on_store(self, context_id: str, stored: "StoredContext") -> None:
        super().on_store(context_id, stored)
        self._uses[context_id] = self._uses.get(context_id, 0) + 1

    def on_access(self, context_id: str) -> None:
        super().on_access(context_id)
        self._uses[context_id] = self._uses.get(context_id, 0) + 1

    def on_evict(self, context_id: str) -> None:
        super().on_evict(context_id)
        self._uses.pop(context_id, None)

    def _retention_value(self, context_id: str, stored: "StoredContext") -> float:
        saved = self._uses.get(context_id, 0) * self.cost_model.recompute_cost_per_request(
            stored.num_tokens
        )
        keep = self.cost_model.storage_cost_per_month(stored.total_bytes())
        if keep <= 0:
            return float("inf")
        return saved / keep

    def select_victim(self, contexts: Mapping[str, "StoredContext"]) -> str:
        if not contexts:
            raise ValueError("no contexts to evict")
        return min(
            contexts,
            key=lambda cid: (self._retention_value(cid, contexts[cid]), self._recency(cid)),
        )


#: Eviction policies by the name a spec gives them.
POLICIES = {"lru": LRUPolicy, "cost": CostAwarePolicy}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by name (``"lru"``, ``"cost"``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown eviction policy {name!r}; known policies: {known}") from None
