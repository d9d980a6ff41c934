"""Distributed KV-cache cluster: sharded, replicated, capacity-bounded serving.

The paper's testbed is one KV storage server behind one link; this package is
the store that scales it out, and its one-node case *is* that testbed (the
:class:`~repro.serving.api.backends.Backend` reads and writes nothing
else):

* :class:`ConsistentHashRing` — directory-free context placement;
* :class:`StorageNode` — a capacity-bounded store plus its own link and stats;
* :class:`ShardedKVStore` — replicated placement with failover lookup;
* :class:`WorkloadGenerator` — Zipf/Poisson multi-tenant workloads (drive
  them with :func:`repro.serving.api.serve`; the cluster-level report is its
  :class:`~repro.serving.api.RunReport`).
"""

from .hash_ring import ConsistentHashRing
from .node import StorageNode
from .sharded_store import Lookup, Placement, ShardedKVStore
from .workload import Request, WorkloadGenerator

__all__ = [
    "ConsistentHashRing",
    "Lookup",
    "Placement",
    "Request",
    "ShardedKVStore",
    "StorageNode",
    "WorkloadGenerator",
]
