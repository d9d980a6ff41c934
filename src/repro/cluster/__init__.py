"""Distributed KV-cache cluster: sharded, replicated, capacity-bounded serving.

The single-node serving stack (one :class:`~repro.storage.KVCacheStore`, one
:class:`~repro.network.NetworkLink`, one
:class:`~repro.serving.engine.ContextLoadingEngine`) reproduces the paper's testbed;
this package scales it out:

* :class:`ConsistentHashRing` — directory-free context placement;
* :class:`StorageNode` — a capacity-bounded store plus its own link and stats;
* :class:`ShardedKVStore` — replicated placement with failover lookup;
* :class:`ClusterFrontend` — the engine extended with cluster routing and a
  text fallback on full cluster miss;
* :class:`WorkloadGenerator` — Zipf/Poisson multi-tenant workloads (drive
  them with :func:`repro.serving.api.serve`; the cluster-level report is its
  :class:`~repro.serving.api.RunReport`).
"""

from .frontend import ClusterFrontend
from .hash_ring import ConsistentHashRing
from .node import StorageNode
from .sharded_store import Lookup, Placement, RebalanceReport, ShardedKVStore
from .workload import Request, WorkloadGenerator

__all__ = [
    "ClusterFrontend",
    "ConsistentHashRing",
    "Lookup",
    "Placement",
    "RebalanceReport",
    "Request",
    "ShardedKVStore",
    "StorageNode",
    "WorkloadGenerator",
]
