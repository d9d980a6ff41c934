"""Figure 19: TTFT improvement over the best baseline across the workload space.

A heatmap over available bandwidth (log scale) and available GPU cycles
(1/number of concurrent requests).  In a cell (b, n), n copies of each
method's load arrive together on one event engine: each copy streams over
its own link of bandwidth b, and all n share the one GPU.  The cell reports
CacheGen's mean TTFT reduction relative to the better of the text and
quantization baselines.
"""

from __future__ import annotations

from typing import Sequence

from ..serving.concurrent.simulator import ConcurrentLoadSimulator
from .common import ExperimentResult, Workbench, default_link

__all__ = ["run_figure19"]


def run_figure19(
    bandwidths_gbps: Sequence[float] = (0.5, 1.0, 3.0, 10.0, 40.0),
    concurrency_levels: Sequence[int] = (1, 2, 4, 8),
    num_tokens: int = 9_600,
    model: str = "mistral-7b",
) -> ExperimentResult:
    """Reproduce Figure 19 (improvement heatmap over bandwidth x GPU share)."""
    workbench = Workbench(model=model, dataset="longchat", num_contexts=1)
    base_record = workbench.records[0]
    record = type(base_record)(
        context_id=base_record.context_id,
        num_tokens=num_tokens,
        prompt_tokens=base_record.prompt_tokens,
        task=base_record.task,
        question=base_record.question,
    )
    methods = workbench.standard_methods(quant_bits=(8,))

    result = ExperimentResult(
        name="figure19",
        description="CacheGen TTFT improvement over the best baseline",
        metadata={"num_tokens": num_tokens},
    )
    for bandwidth in bandwidths_gbps:
        for n in concurrency_levels:
            ttfts: dict[str, float] = {}
            for method_name, method in methods.items():
                simulator = ConcurrentLoadSimulator()
                for _ in range(n):
                    method.stage(
                        simulator, workbench.request_for(record, link=default_link(bandwidth))
                    )
                timelines = simulator.run()
                ttfts[method_name] = sum(t.ttft.total_s for t in timelines) / n
            best_baseline = min(ttfts["text"], ttfts["quant-8bit"])
            result.add_row(
                bandwidth_gbps=bandwidth,
                concurrent_requests=n,
                cachegen_ttft_s=ttfts["cachegen"],
                best_baseline_ttft_s=best_baseline,
                improvement=best_baseline / ttfts["cachegen"],
            )
    return result
