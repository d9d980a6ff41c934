"""Figure 13: SLO violation rate vs quality under random bandwidth traces.

Each context chunk's bandwidth is drawn from 0.1-10 Gbps.  CacheGen's
adaptation keeps the violation rate far below both the quantization baseline
and CacheGen without adaptation at the same quality.

The two CacheGen variants are served through the unified serving API: one
:class:`~repro.serving.api.ServingSpec` (single-node backend), contexts
ingested once, each trace swapped onto the backend's serving link.  The
adaptive rows hand each query the SLO (the backend's SLO-aware adapter
degrades encoding levels chunk by chunk); the no-adaptation rows stream the
fixed default level and are judged against the same SLO afterwards.  The
quantization baseline has no backend path and keeps its method harness, whose
loads the same event engine times.  Every row holds the SLO to the loading
delay, TTFT less the prompt prefill, which both harnesses read off the
request's event timeline (``MethodResult.loading_delay_s``,
``ServeResponse.loading_s``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..baselines import UniformQuantizationBaseline
from ..metrics.system import slo_violation_rate
from ..network.bandwidth import RandomTrace, gbps
from ..network.link import NetworkLink
from ..serving.api import ServeRequest, ServingSpec, build_backend
from .common import ExperimentResult, Workbench

__all__ = ["run_figure13"]


def run_figure13(
    slos_s: Sequence[float] = (0.5, 1.0),
    num_traces: int = 5,
    num_contexts: int = 2,
    model: str = "mistral-7b",
    dataset: str = "longchat",
    context_token_cap: int | None = 6_000,
    min_gbps: float = 0.1,
    max_gbps: float = 10.0,
) -> ExperimentResult:
    """Reproduce Figure 13 (SLO violation rate and quality per method)."""
    workbench = Workbench(
        model=model,
        dataset=dataset,
        num_contexts=num_contexts,
        context_token_cap=context_token_cap,
    )
    records = workbench.records
    quant = UniformQuantizationBaseline(8)

    # One spec serves both CacheGen variants: adaptation is per-query (an SLO
    # on the request enables the adapter), so the same backend and stored
    # bitstreams back every row.
    spec = ServingSpec(
        model=model,
        topology="single",
        base_quality={
            workbench.dataset.task: workbench.dataset.base_quality_for(
                workbench.model.name
            )
        },
    )
    backend = build_backend(spec)
    for record in records:
        backend.ingest(record.context_id, record.num_tokens)

    def serve_rows(link: NetworkLink, slo_s: float | None) -> list:
        """Each record served alone: one run — one fresh event clock — per request."""
        backend.replace_link(link)
        responses = []
        for record in records:
            request = ServeRequest(
                record.context_id,
                record.question,
                num_tokens=record.num_tokens,
                task=record.task,
                slo_s=slo_s,
            )
            responses.extend(backend.run([request]))
        return responses

    result = ExperimentResult(
        name="figure13",
        description="SLO violation rate vs quality under random bandwidth",
        metadata={"num_traces": num_traces, "bandwidth_range_gbps": (min_gbps, max_gbps)},
    )
    for slo in slos_s:
        for method_name in ("quantization", "cachegen-no-adapt", "cachegen"):
            delays: list[float] = []
            qualities: list[float] = []
            for trace_index in range(num_traces):
                trace = RandomTrace(
                    min_bps=gbps(min_gbps),
                    max_bps=gbps(max_gbps),
                    interval_s=0.25,
                    seed=trace_index,
                )
                link = NetworkLink(trace)
                if method_name == "quantization":
                    for outcome in workbench.evaluate(quant, link=link, slo_s=slo):
                        delays.append(outcome.loading_delay_s)
                        qualities.append(outcome.quality.value)
                else:
                    adaptive = method_name == "cachegen"
                    for response in serve_rows(link, slo if adaptive else None):
                        delays.append(response.loading_s)
                        qualities.append(response.quality.value)
            result.add_row(
                slo_s=slo,
                method=method_name,
                violation_rate=slo_violation_rate(delays, slo),
                quality=float(np.mean(qualities)),
            )
    return result
