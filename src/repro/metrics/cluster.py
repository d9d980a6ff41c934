"""Cluster-level aggregate metrics.

The single-request metrics in :mod:`repro.metrics.system` (TTFT breakdowns,
SLO violations) describe one query; a cluster run produces thousands of them
plus per-node cache behaviour.  This module provides the aggregates the
:class:`~repro.serving.api.RunReport` reports: latency percentiles, SLO
attainment, and per-node hit/eviction summaries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stats import percentiles
from .system import slo_violation_rate

__all__ = [
    "EMPTY_LATENCY_SUMMARY",
    "LatencySummary",
    "NodeSummary",
    "TierState",
    "summarize_latencies",
    "slo_attainment",
    "hit_ratio",
    "tier_hit_ratios",
    "tier_state",
    "storage_cost_per_request",
]


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of a latency sample (seconds)."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.count} mean={self.mean_s:.3f}s p50={self.p50_s:.3f}s "
            f"p95={self.p95_s:.3f}s p99={self.p99_s:.3f}s max={self.max_s:.3f}s"
        )


@dataclass(frozen=True)
class NodeSummary:
    """Cache behaviour of one storage node over a cluster run.

    The tier fields stay zero for single-tier nodes: ``hits`` then equals
    ``hot_hits`` and ``evictions`` counts outright drops.  On a tiered node
    ``evictions`` counts only cold-tier drops (true losses); hot-tier
    capacity pressure shows up as ``demotions`` instead.
    """

    node_id: str
    requests_routed: int
    hits: int
    evictions: int
    bytes_served: float
    stored_bytes: float
    contexts_resident: int
    up: bool
    hot_hits: int = 0
    cold_hits: int = 0
    demotions: int = 0
    promotions: int = 0
    hot_bytes: float = 0.0
    cold_bytes: float = 0.0

    @property
    def hit_ratio(self) -> float:
        return hit_ratio(self.hits, self.requests_routed)

    @property
    def hot_hit_ratio(self) -> float:
        """Fraction of routed requests served from the hot tier."""
        return hit_ratio(self.hot_hits, self.requests_routed)

    @property
    def cold_hit_ratio(self) -> float:
        """Fraction of routed requests served off the cold tier."""
        return hit_ratio(self.cold_hits, self.requests_routed)


@dataclass(frozen=True)
class TierState:
    """Cumulative tier counters and resident bytes of a set of storage nodes.

    Single-tier nodes contribute their resident bytes as hot; their demotion
    and promotion counts are zero by construction.
    """

    demotions: int
    promotions: int
    hot_bytes: float
    cold_bytes: float


def tier_state(nodes) -> TierState:
    """Aggregate the tier counters/bytes across nodes (duck-typed).

    Accepts anything iterable of :class:`~repro.cluster.node.StorageNode`-like
    objects (``tiered``, ``store``); the :class:`~repro.serving.api.RunReport`
    assembly takes its tier accounting from here.
    """
    demotions = promotions = 0
    hot = cold = 0.0
    for node in nodes:
        if node.tiered:
            demotions += node.store.demotion_count
            promotions += node.store.promotion_count
            hot += node.store.hot_bytes()
            cold += node.store.cold_bytes()
        else:
            hot += float(node.store.storage_bytes())
    return TierState(
        demotions=demotions, promotions=promotions, hot_bytes=hot, cold_bytes=cold
    )


#: The summary of zero samples: all-zero percentiles with ``count == 0``.
#: What :func:`summarize_latencies` returns for empty input, shared by every
#: report assembly that wants to pre-build it without triggering the warning.
EMPTY_LATENCY_SUMMARY = LatencySummary(
    count=0, mean_s=0.0, p50_s=0.0, p95_s=0.0, p99_s=0.0, max_s=0.0
)


def summarize_latencies(samples: Sequence[float]) -> LatencySummary:
    """Latency percentiles over a sample of TTFTs (or any delays).

    Empty input yields :data:`EMPTY_LATENCY_SUMMARY` (with a warning) rather
    than raising: an idle resource or a fully-shed run has a well-defined
    summary — nothing happened — and report generation must not crash on it.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        warnings.warn(
            "summarize_latencies: no samples; returning an empty summary",
            RuntimeWarning,
            stacklevel=2,
        )
        return EMPTY_LATENCY_SUMMARY
    if np.any(arr < 0):
        raise ValueError("latencies must be non-negative")
    p50, p95, p99 = percentiles(arr, (50.0, 95.0, 99.0))
    return LatencySummary(
        count=int(arr.size),
        mean_s=float(arr.mean()),
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        max_s=float(arr.max()),
    )


def slo_attainment(ttfts: Sequence[float], slo_s: float) -> float:
    """Fraction of requests that met the TTFT SLO (complement of Figure 13's
    violation rate)."""
    return 1.0 - slo_violation_rate(ttfts, slo_s)


def hit_ratio(hits: int, total: int) -> float:
    """Cache hit ratio; 0.0 for an unused cache rather than a division error."""
    if hits < 0 or total < 0 or hits > total:
        raise ValueError("need 0 <= hits <= total")
    if total == 0:
        return 0.0
    return hits / total


def tier_hit_ratios(hot_hits: int, cold_hits: int, num_requests: int) -> tuple[float, float]:
    """Per-tier hit ratios of a run (hot, cold) over all requests."""
    return (
        hit_ratio(hot_hits, num_requests),
        hit_ratio(cold_hits, num_requests),
    )


def storage_cost_per_request(
    hot_bytes: float,
    cold_bytes: float,
    num_requests: int,
    reprefill_fraction: float = 0.0,
    mean_context_tokens: int = 0,
    cost_model=None,
) -> float:
    """$/GB-derived serving cost per request of a cluster run.

    Treats the run's request count as one month of traffic against the bytes
    resident when it ended: storage dollars amortise over the requests, and
    every full miss re-pays Appendix E's recompute price for the mean context.
    ``cost_model`` defaults to :class:`~repro.storage.cost.TieredCostModel`'s
    reference prices.
    """
    from ..storage.cost import TieredCostModel

    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    model = cost_model or TieredCostModel()
    return model.cost_per_request(
        hot_bytes=hot_bytes,
        cold_bytes=cold_bytes,
        requests_per_month=float(num_requests),
        reprefill_fraction=reprefill_fraction,
        num_tokens=mean_context_tokens,
    )
