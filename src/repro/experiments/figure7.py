"""Figure 7: time series of CacheGen's adaptation under a bandwidth drop.

A single context is streamed over a step trace (fast start, sharp drop,
partial recovery).  The non-adaptive variants miss the SLO; CacheGen switches
to recomputing from text during the outage and to a lower encoding level after
the partial recovery, meeting the SLO.
"""

from __future__ import annotations

from ..baselines import UniformQuantizationBaseline
from ..network.bandwidth import StepTrace, gbps
from ..network.link import NetworkLink
from .common import ExperimentResult, Workbench

__all__ = ["run_figure7"]


def run_figure7(
    slo_s: float = 4.0,
    num_tokens: int = 9_400,
    model: str = "mistral-7b",
    drop_at_s: float = 2.0,
    recover_at_s: float = 4.0,
    initial_gbps: float = 2.0,
    drop_gbps: float = 0.2,
    recovered_gbps: float = 1.0,
) -> ExperimentResult:
    """Reproduce Figure 7 (per-chunk configuration decisions over time)."""
    workbench = Workbench(model=model, dataset="longchat", num_contexts=1)
    record = workbench.records[0]
    record = type(record)(
        context_id=record.context_id,
        num_tokens=num_tokens,
        prompt_tokens=record.prompt_tokens,
        task=record.task,
        question=record.question,
    )
    trace = StepTrace(
        initial_bps=gbps(initial_gbps),
        drop_bps=gbps(drop_gbps),
        recovered_bps=gbps(recovered_gbps),
        drop_at_s=drop_at_s,
        recover_at_s=recover_at_s,
    )
    link = NetworkLink(trace)

    result = ExperimentResult(
        name="figure7",
        description="Adaptation decisions of each chunk under a bandwidth drop",
        metadata={"slo_s": slo_s, "trace": "step"},
    )

    methods = {
        "quantization": UniformQuantizationBaseline(8),
        "cachegen-no-adapt": workbench.cachegen_method(adaptive=False),
        "cachegen": workbench.cachegen_method(adaptive=True),
    }
    for name, method in methods.items():
        request = workbench.request_for(record, link=link, slo_s=slo_s)
        outcome = method.evaluate(request)
        result.add_row(
            method=name,
            ttft_s=outcome.ttft_s,
            loading_delay_s=outcome.loading_delay_s,
            meets_slo=outcome.loading_delay_s <= slo_s,
            configs=",".join(outcome.extras.get("configs", [])) or "-",
            transmitted_mb=outcome.transmitted_bytes / 1e6,
        )
    return result
