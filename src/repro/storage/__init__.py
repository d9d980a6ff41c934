"""Storage substrate: KV cache stores (hot and tiered), eviction and cost."""

from .cost import CostAnalysis, CostModel, PricingModel, TieredCostModel, TieredPricingModel
from .eviction import CostAwarePolicy, EvictionPolicy, LRUPolicy, make_policy
from .kv_store import CapacityError, KVCacheStore, StoredContext
from .tiered import (
    COLD,
    HOT,
    AlwaysHotPlacement,
    CostAwarePlacement,
    DiskKVStore,
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
    "DiskKVStore",
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
