"""Hot:cold capacity-ratio sweep over the tiered storage cluster.

The paper's cluster stores compressed KV caches in capacity-bounded memory;
Appendix E prices a cheaper, slower storage class next to it.  This experiment
splits a fixed per-node byte budget between the two tiers and serves the same
Zipf workload at every split — declared as one
:class:`~repro.serving.api.ServingSpec` per ratio and driven open-loop through
the unified API's arrival-driven :class:`~repro.serving.api.Driver` (the true
Poisson arrival process, not fixed-size waves): a bigger hot tier keeps TTFT
low, a bigger cold tier keeps contexts resident (demoting instead of dropping)
at a fraction of the $/GB — the sweep reports where the per-tier hit ratios,
the TTFT percentiles and the cost per request land between those extremes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..cluster import WorkloadGenerator
from ..serving.api import ServingSpec, serve
from .common import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..telemetry.trace import Tracer

__all__ = ["run_tiered_storage"]


def run_tiered_storage(
    model: str = "mistral-7b",
    hot_fractions: Sequence[float] = (1.0, 0.5, 0.25),
    total_bytes_per_node: float = 240e6,
    num_nodes: int = 2,
    num_requests: int = 40,
    num_contexts: int = 8,
    concurrency: int = 4,
    slo_s: float = 1.0,
    tier_bandwidth_gbps: float = 1.0,
    seed: int = 11,
    tracer: "Tracer | None" = None,
) -> ExperimentResult:
    """Sweep the hot:cold split of a fixed per-node storage budget.

    ``hot_fraction=1.0`` is the single-tier baseline (capacity evictions drop
    contexts); smaller fractions shift budget to the cold tier, trading hot
    hits for cold hits that pay the tier link but dodge the re-prefill.

    Pass a ``tracer`` to record the sweep's full telemetry (all ratios land on
    one timeline; demotion/promotion instants carry the per-node track names).
    """
    result = ExperimentResult(
        name="tiered-storage",
        description="Hot:cold capacity ratio vs per-tier hits, TTFT and $/request",
        metadata={
            "model": model,
            "total_bytes_per_node": total_bytes_per_node,
            "num_nodes": num_nodes,
            "num_requests": num_requests,
            "concurrency": concurrency,
            "slo_s": slo_s,
        },
    )
    for hot_fraction in hot_fractions:
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fractions must be in (0, 1]")
        hot_bytes = total_bytes_per_node * hot_fraction
        cold_bytes = total_bytes_per_node - hot_bytes
        spec = ServingSpec(
            model=model,
            topology="tiered" if cold_bytes > 0 else "cluster",
            num_nodes=num_nodes,
            replication=2,
            max_bytes_per_node=hot_bytes,
            cold_bytes_per_node=cold_bytes if cold_bytes > 0 else None,
            tier_bandwidth_gbps=tier_bandwidth_gbps,
            eviction_policy="lru",
            chunk_tokens=256,
            concurrency=concurrency,
            slo_s=slo_s,
            adaptive=False,
        )
        workload = WorkloadGenerator(
            num_contexts=num_contexts,
            zipf_alpha=1.0,
            token_choices=(320, 640),
            seed=seed,
        )
        report = serve(spec, workload=workload, num_requests=num_requests, tracer=tracer)
        result.add_row(
            hot_fraction=hot_fraction,
            hit_ratio=report.hit_ratio,
            hot_hit_ratio=report.hot_hit_ratio,
            cold_hit_ratio=report.cold_hit_ratio,
            demotions=report.demotions,
            promotions=report.promotions,
            evict_drops=report.total_evictions,
            text_served=report.text_served,
            ttft_p50_s=report.ttft.p50_s,
            ttft_p95_s=report.ttft.p95_s,
            queueing_p95_s=report.queueing.p95_s if report.queueing else 0.0,
            slo_attainment=report.slo_attainment,
            storage_usd_per_month=report.storage_cost_usd_per_month,
            cost_usd_per_request=report.cost_usd_per_request,
        )
    return result
