"""Consistent-hash ring for context placement.

Contexts are placed on storage nodes by hashing their ids onto a ring of
virtual-node points.  Consistent hashing gives the two properties a growing
cluster needs: placement is computable by any frontend without a directory
service, and adding or removing one node only remaps the keys adjacent to that
node's points (≈ ``1/n`` of the keyspace) instead of reshuffling everything.

Replication walks the ring clockwise from a key's point, collecting the first
``n`` *distinct* physical nodes — the standard successor-list placement.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

__all__ = ["ConsistentHashRing"]


def _hash64(value: str) -> int:
    """Stable 64-bit hash, independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """A consistent-hash ring over named nodes with virtual-node smoothing.

    Parameters
    ----------
    node_ids:
        Initial physical nodes.
    vnodes:
        Virtual points per physical node.  More points smooth the load split
        at the price of a larger ring (lookup stays O(log ring)).
    """

    def __init__(self, node_ids: Iterable[str] = (), vnodes: int = 64) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node_id in node_ids:
            self.add_node(node_id)

    # ----------------------------------------------------------------- topology
    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} is already on the ring")
        self._nodes.add(node_id)
        for i in range(self.vnodes):
            point = _hash64(f"{node_id}#{i}")
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node_id)

    # ------------------------------------------------------------------- lookup
    def nodes_for(self, key: str, count: int) -> list[str]:
        """Preference-ordered distinct nodes for ``key``.

        The first entry is the primary, the rest are the replica targets in
        ring order.  ``count`` is capped at the number of physical nodes.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if not self._nodes:
            raise RuntimeError("hash ring has no nodes")
        count = min(count, len(self._nodes))
        start = bisect.bisect(self._points, _hash64(key)) % len(self._points)
        chosen: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                chosen.append(owner)
                if len(chosen) == count:
                    break
        return chosen

    def preference_order(self, key: str) -> list[str]:
        """All physical nodes in failover order for ``key``."""
        return self.nodes_for(key, len(self._nodes))
