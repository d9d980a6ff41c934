"""Storage substrate: the node store (a hot tier plus an optional cold tier),
eviction, placement and cost."""

from .cost import CostAnalysis, CostModel, PricingModel, TieredCostModel, TieredPricingModel
from .eviction import CostAwarePolicy, EvictionPolicy, LRUPolicy, make_policy
from .kv_store import CapacityError, KVCacheStore, StoredContext
from .tiered import (
    COLD,
    HOT,
    AlwaysHotPlacement,
    CostAwarePlacement,
    PlacementPolicy,
    TieredKVStore,
    TierStats,
    make_placement,
)

__all__ = [
    "COLD",
    "HOT",
    "AlwaysHotPlacement",
    "CapacityError",
    "CostAnalysis",
    "CostAwarePlacement",
    "CostAwarePolicy",
    "CostModel",
    "EvictionPolicy",
    "KVCacheStore",
    "LRUPolicy",
    "PlacementPolicy",
    "PricingModel",
    "StoredContext",
    "TierStats",
    "TieredCostModel",
    "TieredKVStore",
    "TieredPricingModel",
    "make_placement",
    "make_policy",
]
