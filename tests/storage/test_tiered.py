"""Tests for the node store: demotion, promotion, placement, headroom, and a
node without a cold tier."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.network import ConstantTrace, NetworkLink
from repro.storage import (
    COLD,
    HOT,
    CapacityError,
    CostAwarePlacement,
    CostAwarePolicy,
    KVCacheStore,
    LRUPolicy,
    StoredContext,
    TieredCostModel,
    TieredKVStore,
    TieredPricingModel,
    make_placement,
)
from repro.telemetry import Tracer


def _ctx(context_id: str, num_bytes: float, num_tokens: int = 1_000) -> StoredContext:
    chunk = SimpleNamespace(encodings={"only": SimpleNamespace(compressed_bytes=num_bytes)})
    return StoredContext(
        context_id=context_id, model_name="fake", num_tokens=num_tokens, chunks=[chunk]
    )


def _tiered(
    policy=None,
    hot_bytes: float = 250.0,
    cold_bytes: float | None = 10_000.0,
    cold_policy=None,
    **kwargs,
) -> TieredKVStore:
    hot = KVCacheStore(
        encoder=None, max_bytes=hot_bytes, eviction_policy=policy or LRUPolicy()
    )
    cold = KVCacheStore(encoder=None, max_bytes=cold_bytes, eviction_policy=cold_policy)
    return TieredKVStore(hot, cold, **kwargs)


class TestDemotion:
    @pytest.mark.parametrize("policy_cls", [LRUPolicy, CostAwarePolicy])
    def test_capacity_pressure_demotes_instead_of_dropping(self, policy_cls):
        store = _tiered(policy_cls())
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 100.0))
        store.store_prepared(_ctx("c", 100.0))  # the policy's victim leaves hot
        resident = {cid: store.tier_of(cid) for cid in ("a", "b", "c")}
        assert sorted(resident.values()).count(COLD) == 1
        assert all(cid in store for cid in ("a", "b", "c"))
        assert store.eviction_count == 0  # no true losses

    def test_demotion_lands_cold_after_flush(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # demotes "a" (in flight)
        assert store._pending_bytes == pytest.approx(100.0)
        assert store.tier_of("a") == COLD
        flushed = store.flush_demotions()
        assert flushed == 1
        assert store._pending_bytes == 0.0
        assert "a" in store.cold
        assert store.stats.demotions == 1
        assert store.stats.demoted_bytes == pytest.approx(100.0)

    def test_cold_capacity_pressure_is_a_true_drop(self):
        store = _tiered(hot_bytes=100.0, cold_bytes=100.0)
        store.store_prepared(_ctx("a", 90.0))
        store.store_prepared(_ctx("b", 90.0))  # demotes "a" to cold
        store.store_prepared(_ctx("c", 90.0))  # demotes "b"; cold drops "a"
        store.flush_demotions()
        assert store.eviction_count == 1
        assert "a" not in store

    def test_victim_too_large_for_cold_tier_drops_immediately(self):
        """A demotion that can never be written back must not look resident.

        Regression: the victim used to sit in the pending buffer (tier_of ==
        "cold"), then vanish at the next flush without a counter — and a
        lookup that had already selected the replica crashed with KeyError.
        """
        store = _tiered(hot_bytes=250.0, cold_bytes=120.0)
        store.store_prepared(_ctx("big", 200.0))
        store.store_prepared(_ctx("small", 100.0))  # evicts "big"; cold can't hold it
        assert store.tier_of("big") is None
        assert "big" not in store
        assert store._pending_bytes == 0.0
        assert store.eviction_count == 1  # a true loss, counted
        assert store.stats.demotion_drops == 1
        assert store.stats.demotions == 0
        with pytest.raises(KeyError):
            store.get_context("big")

    def test_storage_bytes_spans_tiers_and_write_buffer(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # "a" pending demotion
        assert float(store.storage_bytes()) == pytest.approx(300.0)
        store.flush_demotions()
        assert float(store.storage_bytes()) == pytest.approx(300.0)
        assert store.hot_bytes() == pytest.approx(200.0)
        assert store.cold_bytes() == pytest.approx(100.0)


class TestPromotion:
    def test_cold_hit_promotes_back_to_hot(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # demotes "a"
        stored = store.get_context("a")
        assert stored.context_id == "a"
        assert store.tier_of("a") == HOT
        assert store.tier_of("b") == COLD  # promotion displaced "b"
        assert store.stats.promotions == 1
        assert store.stats.promoted_bytes == pytest.approx(100.0)

    def test_promotion_refreshes_lru_recency(self):
        """A promoted context is the *most* recently used, not the next victim."""
        store = _tiered(LRUPolicy(), hot_bytes=250.0)
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 100.0))
        store.store_prepared(_ctx("c", 100.0))  # demotes "a"
        store.get_context("a")  # promotes "a", demotes "b"
        store.store_prepared(_ctx("d", 100.0))  # must demote "c", not "a"
        assert store.tier_of("a") == HOT
        assert store.tier_of("c") == COLD

    def test_promotion_reregisters_policy_state(self):
        """Demotion clears hot-policy state; promotion re-registers the
        context as freshly used (frequency restarts, recency is newest)."""
        policy = CostAwarePolicy()
        store = _tiered(policy, hot_bytes=250.0)
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # demotes "a": its use count dropped
        assert "a" not in policy._uses
        store.get_context("a")  # promotes: back in the books, most recent
        assert policy._uses["a"] == 1
        assert policy._last_used["a"] == max(policy._last_used.values())
        store.get_context("a")  # a hot hit keeps counting
        assert policy._uses["a"] == 2

    def test_oversized_context_serves_cold_without_promotion(self):
        store = _tiered(hot_bytes=150.0, placement="cost")
        # Straight-to-cold placement for a context bigger than the hot tier.
        store.store_prepared(_ctx("big", 400.0, num_tokens=10))
        assert store.tier_of("big") == COLD
        stored = store.get_context("big")
        assert stored.context_id == "big"
        assert store.tier_of("big") == COLD
        assert store.stats.promotions == 0


class TestHeadroom:
    def test_in_flight_demotions_shrink_headroom(self):
        """The add_node rebalance guard must see write-buffer bytes."""
        store = _tiered(hot_bytes=250.0)
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # "a" in flight: RAM holds 300
        assert store.migration_headroom_bytes() == 0.0
        store.flush_demotions()
        assert store.migration_headroom_bytes() == pytest.approx(50.0)

    def test_flat_store_headroom(self):
        flat = TieredKVStore(
            KVCacheStore(encoder=None, max_bytes=250.0, eviction_policy=LRUPolicy())
        )
        flat.store_prepared(_ctx("a", 100.0))
        assert flat.migration_headroom_bytes() == pytest.approx(150.0)


class TestTieredSurface:
    def test_unbounded_hot_tier_rejected(self):
        with pytest.raises(ValueError):
            TieredKVStore(KVCacheStore(encoder=None), KVCacheStore(encoder=None))

    def test_evict_removes_from_every_tier(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # "a" pending demotion
        assert store.evict("a")  # from the write buffer
        assert store.evict("b")  # from hot
        assert not store.evict("a")
        assert len(store) == 0
        assert float(store.storage_bytes()) == 0.0

    def test_membership_spans_tiers(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # demotes "a"
        assert store.tier_of("a") == COLD and store.tier_of("b") == HOT
        store.flush_demotions()
        assert "a" in store and "b" in store and "c" not in store
        assert store.tier_of("c") is None
        assert len(store) == 2

    def test_get_chunks_promotes_a_cold_context(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 100.0))
        store.store_prepared(_ctx("c", 100.0))  # demotes "a"
        store.flush_demotions()
        assert store.tier_of("a") == COLD
        assert len(store.get_chunks("a")) == 1
        assert store.tier_of("a") == HOT
        assert store.stats.promotions == 1

    def test_peek_does_not_promote(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))
        assert store.peek_context("a").context_id == "a"  # pending demotion
        store.flush_demotions()
        assert store.peek_context("a").context_id == "a"  # cold
        assert store.tier_of("a") == COLD
        assert store.stats.promotions == 0

    def test_restore_keeps_single_resident_copy(self):
        store = _tiered()
        store.store_prepared(_ctx("a", 100.0))
        store.store_prepared(_ctx("b", 200.0))  # demotes "a"
        store.flush_demotions()
        store.store_prepared(_ctx("a", 120.0))  # re-ingest lands hot again
        assert store.tier_of("a") == HOT
        assert "a" not in store.cold
        assert len(store) == 2


class TestPlacementAndPricing:
    def test_cost_aware_placement_sends_bulky_cold(self):
        placement = CostAwarePlacement(expected_reuses_per_month=1.0)
        bulky = _ctx("bulky", 5e9, num_tokens=100)
        hot_worthy = _ctx("doc", 1e6, num_tokens=100_000)
        assert placement.place(bulky) == COLD
        assert placement.place(hot_worthy) == HOT
        assert placement.hot_breakeven_reuses(bulky) > placement.hot_breakeven_reuses(
            hot_worthy
        )

    def test_make_placement_names(self):
        assert make_placement("hot").place(_ctx("a", 1e12, num_tokens=1)) == HOT
        assert isinstance(make_placement("cost"), CostAwarePlacement)
        for unknown in ("random", "cost_aware", "HOT"):
            with pytest.raises(KeyError):
                make_placement(unknown)

    def test_cost_aware_placement_lands_cold(self):
        store = _tiered(
            hot_bytes=10e9,
            cold_bytes=None,
            placement=CostAwarePlacement(expected_reuses_per_month=1.0),
        )
        store.store_prepared(_ctx("bulky", 5e9, num_tokens=100))
        assert store.tier_of("bulky") == COLD
        assert "bulky" in store.cold and "bulky" not in store.hot

    def test_tiered_pricing_validation(self):
        with pytest.raises(ValueError):
            TieredPricingModel(cold_storage_usd_per_gb_month=-1.0)
        with pytest.raises(ValueError):
            TieredPricingModel(
                storage_usd_per_gb_month=0.01, cold_storage_usd_per_gb_month=0.02
            )

    def test_tiered_cost_model_per_request(self):
        model = TieredCostModel()
        assert model.cold_storage_cost_per_month(1e9) < model.storage_cost_per_month(1e9)
        combined = model.monthly_storage_cost(1e9, 2e9)
        assert combined == pytest.approx(
            model.storage_cost_per_month(1e9) + model.cold_storage_cost_per_month(2e9)
        )
        base = model.cost_per_request(1e9, 1e9, requests_per_month=100.0)
        with_misses = model.cost_per_request(
            1e9, 1e9, requests_per_month=100.0, reprefill_fraction=0.5, num_tokens=8_000
        )
        assert with_misses > base
        with pytest.raises(ValueError):
            model.cost_per_request(1e9, 0.0, requests_per_month=0.0)

    def test_cold_read_delay_scales_with_bytes(self):
        store = _tiered(tier_link=NetworkLink(ConstantTrace(1e9)))
        assert store.cold_read_delay_s(2e9) == pytest.approx(16.0)
        assert store.cold_read_delay_s(1e9) < store.cold_read_delay_s(2e9)

    def test_default_tier_link_is_one_gbps(self):
        assert _tiered().cold_read_delay_s(1e9) == pytest.approx(8.0)


def _traced(store: TieredKVStore) -> Tracer:
    store.tracer = Tracer()
    store.trace_track = "storage:node-0"
    return store.tracer


class TestNodeWithoutColdTier:
    """A memory-only node is its hot tier: same victims, errors and bytes."""

    def _node(self, hot_bytes: float | None = 250.0, **kwargs) -> TieredKVStore:
        hot = KVCacheStore(encoder=None, max_bytes=hot_bytes, eviction_policy=LRUPolicy())
        return TieredKVStore(hot, **kwargs)

    def test_capacity_eviction_is_traced_on_the_node_track(self):
        store = self._node()
        tracer = _traced(store)
        for cid in ("a", "b", "c"):
            store.store_prepared(_ctx(cid, 100.0))
        (event,) = tracer.instants
        assert (event.name, event.track, event.category) == (
            "eviction",
            "storage:node-0",
            "storage",
        )
        assert event.args == {"context_id": "a", "bytes": 100.0}
        evictions = tracer.metrics.counter("evictions")
        assert evictions.help == "contexts dropped under capacity pressure"
        assert evictions.value(store="storage:node-0") == 1
        assert store.eviction_count == 1 and store.stats.demotions == 0

    def test_a_cold_tier_turns_the_eviction_into_a_demotion(self):
        store = _tiered()
        tracer = _traced(store)
        for cid in ("a", "b", "c"):
            store.store_prepared(_ctx(cid, 100.0))
        store.flush_demotions()
        assert [event.name for event in tracer.instants] == ["demotion"]
        assert tracer.metrics.counter("evictions").value(store="storage:node-0") == 0

    def test_placement_is_ignored(self):
        store = self._node(
            hot_bytes=10e9, placement=CostAwarePlacement(expected_reuses_per_month=1.0)
        )
        store.store_prepared(_ctx("bulky", 5e9, num_tokens=100))
        assert store.tier_of("bulky") == HOT
        with pytest.raises(CapacityError):
            store.store_prepared(_ctx("huge", 11e9, num_tokens=100))
        assert store.tier_of("huge") is None

    def test_unbounded_hot_tier_has_infinite_headroom(self):
        store = self._node(hot_bytes=None)
        store.store_prepared(_ctx("a", 1e12))
        assert store.migration_headroom_bytes() == float("inf")

    def test_miss_raises_the_tier_key_error(self):
        store = self._node()
        for read in (store.get_context, store.peek_context, store.get_chunks):
            with pytest.raises(KeyError, match="'nope' is not in the KV store"):
                read("nope")

    def test_storage_bytes_is_the_tier_total(self):
        store = self._node()
        for cid, size in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            store.store_prepared(_ctx(cid, size))
        store.evict("b")
        assert store.storage_bytes() == store.hot.storage_bytes()
        assert store.hot_bytes() == store.hot.storage_bytes()
        assert store.cold_bytes() == 0.0
        assert len(store) == 2
