"""Tests for the KV cache store and the storage/recompute cost model."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.llm import LLAMA_13B
from repro.storage import (
    CapacityError,
    CostAwarePolicy,
    CostModel,
    KVCacheStore,
    LRUPolicy,
    PricingModel,
    StoredContext,
    TieredKVStore,
    make_policy,
)


@pytest.fixture(scope="module")
def store(encoder, kv):
    store = KVCacheStore(encoder)
    store.store_kv("ctx-1", kv)
    return store


class TestKVCacheStore:
    def test_store_and_membership(self, store):
        assert "ctx-1" in store
        assert "ctx-2" not in store

    def test_stored_context_metadata(self, store, kv, encoder):
        stored = store.get_context("ctx-1")
        assert stored.num_tokens == kv.num_tokens
        expected_chunks = -(-kv.num_tokens // encoder.config.chunk_tokens)
        assert stored.num_chunks == expected_chunks

    def test_get_unknown_context(self, store):
        with pytest.raises(KeyError):
            store.get_context("nope")

    def test_get_chunks_returns_every_encoded_chunk(self, store):
        chunks = store.get_chunks("ctx-1")
        assert len(chunks) == store.peek_context("ctx-1").num_chunks
        for chunk in chunks:
            assert chunk.encodings["medium"].level.name == "medium"
            assert chunk.encodings["medium"].compressed_bytes > 0

    def test_get_chunks_unknown_context(self, store):
        with pytest.raises(KeyError, match="not in the KV store"):
            store.get_chunks("nope")

    def test_total_bytes_per_level_smaller_than_all(self, store):
        stored = store.get_context("ctx-1")
        assert stored.total_bytes("medium") < stored.total_bytes()

    def test_evict(self, encoder, kv):
        store = KVCacheStore(encoder)
        store.store_kv("temp", kv)
        assert store.evict("temp")
        assert "temp" not in store
        assert not store.evict("temp")  # idempotent

    def test_running_total_tracks_stores_and_evictions(self, encoder, kv):
        store = KVCacheStore(encoder)
        assert store.storage_bytes() == 0.0
        stored = store.store_kv("a", kv)
        assert store.storage_bytes() == pytest.approx(stored.total_bytes())
        store.store_kv("b", kv)
        assert store.storage_bytes() == pytest.approx(2 * stored.total_bytes())
        store.evict("a")
        assert store.storage_bytes() == pytest.approx(stored.total_bytes())
        store.evict("b")
        assert store.storage_bytes() == 0.0


def _fake_context(context_id: str, num_bytes: float, num_tokens: int = 1_000) -> StoredContext:
    """A StoredContext with a fabricated bitstream size (no real encoding)."""
    chunk = SimpleNamespace(encodings={"only": SimpleNamespace(compressed_bytes=num_bytes)})
    return StoredContext(
        context_id=context_id, model_name="fake", num_tokens=num_tokens, chunks=[chunk]
    )


class TestCapacityBoundedStore:
    """Capacity accounting and the pluggable eviction policies, on a bare tier
    and on a node without a cold tier (which must behave exactly as its tier)."""

    @pytest.fixture(params=["tier", "node"])
    def make(self, request):
        def make(policy, max_bytes=250.0):
            # The encoder is never used: contexts enter via store_prepared.
            tier = KVCacheStore(encoder=None, max_bytes=max_bytes, eviction_policy=policy)
            return tier if request.param == "tier" else TieredKVStore(tier)

        return make

    def test_lru_evicts_least_recently_used(self, make):
        store = make(LRUPolicy())
        store.store_prepared(_fake_context("a", 100.0))
        store.store_prepared(_fake_context("b", 100.0))
        store.get_context("a")  # refresh a
        store.store_prepared(_fake_context("c", 100.0))
        assert "b" not in store
        assert "a" in store and "c" in store
        assert store.eviction_count == 1

    def test_cost_aware_evicts_lowest_retention_value(self, make):
        store = make(CostAwarePolicy())
        # Same access counts: "bulky" costs 10x the storage of "lean" for the
        # same recompute savings, so it goes first.
        store.store_prepared(_fake_context("bulky", 100.0, num_tokens=1_000))
        store.store_prepared(_fake_context("lean", 10.0, num_tokens=1_000))
        store.store_prepared(_fake_context("c", 145.0))
        assert "bulky" not in store
        assert "lean" in store and "c" in store

    def test_eviction_cascades_until_budget_met(self, make):
        store = make(LRUPolicy(), max_bytes=250.0)
        store.store_prepared(_fake_context("a", 100.0))
        store.store_prepared(_fake_context("b", 100.0))
        store.store_prepared(_fake_context("big", 240.0))
        assert "a" not in store and "b" not in store
        assert "big" in store
        assert store.eviction_count == 2
        assert store.storage_bytes() == pytest.approx(240.0)

    def test_oversized_context_rejected(self, make):
        store = make(LRUPolicy(), max_bytes=250.0)
        with pytest.raises(CapacityError):
            store.store_prepared(_fake_context("huge", 251.0))
        assert store.storage_bytes() == 0.0
        assert "huge" not in store

    def test_restore_replaces_without_counting_eviction(self, make):
        store = make(LRUPolicy())
        store.store_prepared(_fake_context("a", 100.0))
        store.store_prepared(_fake_context("a", 120.0))
        assert store.storage_bytes() == pytest.approx(120.0)
        assert store.eviction_count == 0

    def test_unbounded_store_never_evicts(self, make):
        store = make(LRUPolicy(), max_bytes=None)
        for i in range(10):
            store.store_prepared(_fake_context(f"ctx-{i}", 1e9))
        assert len(store) == 10
        assert store.eviction_count == 0

    def test_make_policy_names(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("cost"), CostAwarePolicy)
        for unknown in ("random", "cost_aware", "LRU"):
            with pytest.raises(KeyError):
                make_policy(unknown)

    def test_invalid_max_bytes(self):
        with pytest.raises(ValueError):
            KVCacheStore(encoder=None, max_bytes=0.0)


class TestCostModel:
    def test_storage_cost_linear(self):
        model = CostModel()
        assert model.storage_cost_per_month(2e9) == pytest.approx(
            2 * model.pricing.storage_usd_per_gb_month
        )

    def test_recompute_cost_linear(self):
        model = CostModel()
        assert model.recompute_cost_per_request(2000) == pytest.approx(
            2 * model.pricing.inference_usd_per_1k_input_tokens
        )

    def test_appendix_e_breakeven_scale(self):
        """Appendix E: breakeven around ~100-200 reuses per month."""
        analysis = CostModel().analyse(LLAMA_13B, 8_500, 2.4, num_stored_versions=4)
        assert 30 < analysis.breakeven_requests_per_month < 500
        assert analysis.storing_is_cheaper(1_000)
        assert not analysis.storing_is_cheaper(1)

    def test_more_versions_cost_more(self):
        model = CostModel()
        one = model.analyse(LLAMA_13B, 8_500, 2.4, num_stored_versions=1)
        four = model.analyse(LLAMA_13B, 8_500, 2.4, num_stored_versions=4)
        assert four.storage_usd_per_month == pytest.approx(4 * one.storage_usd_per_month)

    @pytest.mark.parametrize("kwargs", [
        {"storage_usd_per_gb_month": 0.0},
        {"inference_usd_per_1k_input_tokens": -1.0},
    ])
    def test_invalid_pricing(self, kwargs):
        with pytest.raises(ValueError):
            PricingModel(**kwargs)

    def test_invalid_inputs(self):
        model = CostModel()
        with pytest.raises(ValueError):
            model.storage_cost_per_month(-1)
        with pytest.raises(ValueError):
            model.analyse(LLAMA_13B, 1000, 2.4, num_stored_versions=0)
