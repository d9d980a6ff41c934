"""Quality, system, entropy, QoE and cluster metrics used by the harness."""

from .. import _lazy_exports

__all__ = [
    "EMPTY_LATENCY_SUMMARY",
    "LatencySummary",
    "NodeSummary",
    "QualitySummary",
    "QueueingTTFTBreakdown",
    "TTFTBreakdown",
    "accuracy",
    "empirical_entropy_bits",
    "f1_score",
    "grouped_entropy",
    "grouping_entropy_comparison",
    "hit_ratio",
    "mean_opinion_score",
    "percentiles",
    "perplexity",
    "size_reduction",
    "slo_attainment",
    "slo_violation_rate",
    "speedup",
    "summarize_quality",
    "summarize_latencies",
]

# Names resolve on first use: the cluster and serving layers read only the
# cluster, stats and system metrics.
__getattr__, __dir__ = _lazy_exports(
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
        ".entropy": ("empirical_entropy_bits", "grouped_entropy", "grouping_entropy_comparison"),
        ".qoe": ("mean_opinion_score",),
        ".quality": ("QualitySummary", "accuracy", "f1_score", "perplexity", "summarize_quality"),
        ".stats": ("percentiles",),
        ".system": (
            "QueueingTTFTBreakdown",
            "TTFTBreakdown",
            "size_reduction",
            "slo_violation_rate",
            "speedup",
        ),
    },
)
