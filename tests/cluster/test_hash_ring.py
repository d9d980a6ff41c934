"""Tests for the consistent-hash placement ring."""

from __future__ import annotations

import pytest

from repro.cluster import ConsistentHashRing

KEYS = [f"ctx-{i:04d}" for i in range(1_000)]
NODE_IDS = [f"node-{i}" for i in range(4)]


def node_for(ring: ConsistentHashRing, key: str) -> str:
    """The physical node owning ``key`` (its clockwise successor point)."""
    return ring.nodes_for(key, 1)[0]


@pytest.fixture()
def ring() -> ConsistentHashRing:
    return ConsistentHashRing(NODE_IDS)


class TestLookup:
    def test_deterministic(self, ring):
        assert all(node_for(ring, key) == node_for(ring, key) for key in KEYS[:50])

    def test_every_node_gets_keys(self, ring):
        owners = {node_for(ring, key) for key in KEYS}
        assert owners == set(NODE_IDS)

    def test_roughly_balanced(self, ring):
        counts = dict.fromkeys(NODE_IDS, 0)
        for key in KEYS:
            counts[node_for(ring, key)] += 1
        # With 64 vnodes the split is not exact, but no node should be
        # starved or hold a majority of a 4-node ring.
        assert min(counts.values()) > len(KEYS) * 0.10
        assert max(counts.values()) < len(KEYS) * 0.50

    def test_nodes_for_distinct_and_ordered(self, ring):
        nodes = ring.nodes_for("ctx-0001", 3)
        assert len(nodes) == len(set(nodes)) == 3
        assert nodes[0] == node_for(ring, "ctx-0001")
        # Asking for more replicas than nodes caps at the node count.
        assert len(ring.nodes_for("ctx-0001", 99)) == 4

    def test_preference_order_covers_all_nodes(self, ring):
        assert sorted(ring.preference_order("ctx-0002")) == NODE_IDS

    def test_placement_ignores_insertion_order(self, ring):
        reordered = ConsistentHashRing(reversed(NODE_IDS))
        assert all(ring.nodes_for(key, 2) == reordered.nodes_for(key, 2) for key in KEYS[:200])

    def test_replicas_follow_the_preference_order(self, ring):
        for key in KEYS[:50]:
            assert ring.nodes_for(key, 2) == ring.preference_order(key)[:2]

    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing(["solo"], vnodes=1)
        assert {node_for(ring, key) for key in KEYS[:100]} == {"solo"}
        assert ring.nodes_for("ctx-0000", 3) == ["solo"]

    def test_invalid_inputs(self, ring):
        with pytest.raises(ValueError):
            ring.nodes_for("k", 0)
        with pytest.raises(RuntimeError):
            node_for(ConsistentHashRing([]), "k")
        with pytest.raises(ValueError):
            ConsistentHashRing(vnodes=0)


class TestStability:
    """Adding a node must only remap a bounded key fraction."""

    def test_add_node_moves_few_keys(self, ring):
        before = {key: node_for(ring, key) for key in KEYS}
        ring.add_node("node-4")
        after = {key: node_for(ring, key) for key in KEYS}
        moved = sum(1 for key in KEYS if before[key] != after[key])
        # Expected movement is ~1/5 of the keyspace; naive mod-N hashing
        # would move ~4/5.  Allow generous slack around the expectation.
        assert 0 < moved < len(KEYS) * 0.40
        # Every moved key moved *to* the new node, never between old nodes.
        assert all(after[key] == "node-4" for key in KEYS if before[key] != after[key])

    def test_duplicate_node(self, ring):
        with pytest.raises(ValueError):
            ring.add_node("node-0")
