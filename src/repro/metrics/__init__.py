"""System, entropy, QoE and cluster metrics used by the harness."""

from .. import _lazy_exports

__all__ = [
    "EMPTY_LATENCY_SUMMARY",
    "LatencySummary",
    "NodeSummary",
    "QueueingTTFTBreakdown",
    "TTFTBreakdown",
    "grouped_entropy",
    "grouping_entropy_comparison",
    "hit_ratio",
    "mean_opinion_score",
    "percentiles",
    "slo_attainment",
    "slo_violation_rate",
    "summarize_latencies",
]

# Names resolve on first use: the cluster and serving layers read only the
# cluster, stats and system metrics.
__getattr__ = _lazy_exports(
    __name__,
    {
        ".cluster": (
            "EMPTY_LATENCY_SUMMARY",
            "LatencySummary",
            "NodeSummary",
            "hit_ratio",
            "slo_attainment",
            "summarize_latencies",
        ),
        ".entropy": ("grouped_entropy", "grouping_entropy_comparison"),
        ".qoe": ("mean_opinion_score",),
        ".stats": ("percentiles",),
        ".system": (
            "QueueingTTFTBreakdown",
            "TTFTBreakdown",
            "slo_violation_rate",
        ),
    },
)
