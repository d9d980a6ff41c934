"""Figure 12: TTFT vs number of concurrent requests and vs context length.

Left: with more concurrent requests the GPU run queue and the shared link
back up, so the text (prefill) baseline — whose serialized prefills dominate
the GPU — degrades much faster than CacheGen, whose batched bitstream decodes
are cheap.  The concurrency curve is served through the *unified serving API*:
one :class:`~repro.serving.api.ServingSpec`, its backend, and ``n``
identical requests arriving together — each request's TTFT
(queueing + transfer + decode + compute) is read off the schedule; there is no
static GPU share anywhere in this path.  The quantization baseline has no
backend path, so its rows stage ``n`` copies of the baseline's own
:meth:`~repro.baselines.ContextLoadingMethod.load` on the raw event simulator
with the same arrival pattern.  Right: each method's load alone on the same
event engine; the longer the context, the larger CacheGen's gain; below ~1K
tokens CacheGen reverts to loading text, which is then the faster path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..baselines import LoadRequest, UniformQuantizationBaseline
from ..datasets.base import ContextRecord
from ..serving.api import ServeRequest, ServingSpec, build_backend
from ..serving.concurrent.simulator import ConcurrentLoadSimulator
from .common import ExperimentResult, Workbench, default_link

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..telemetry.trace import Tracer

__all__ = ["run_figure12_concurrency", "run_figure12_context_length"]

#: Context ids used by the concurrency panel: one ingested (KV path), one
#: deliberately never ingested (text re-prefill path).
_KV_CONTEXT = "figure12-context"
_TEXT_CONTEXT = "figure12-text-context"


def run_figure12_concurrency(
    concurrency_levels: Sequence[int] = (1, 2, 4, 8, 12),
    num_tokens: int = 9_600,
    bandwidth_gbps: float = 3.0,
    model: str = "mistral-7b",
    max_decode_batch: int = 16,
    gpu_workers: int = 1,
    tracer: "Tracer | None" = None,
) -> ExperimentResult:
    """Reproduce Figure 12 (left): TTFT vs number of concurrent requests.

    For every method and concurrency level ``n``, ``n`` identical requests
    arrive at time zero and are served through the backend of one
    shared :class:`~repro.serving.api.ServingSpec` (shared link, serialized
    GPU, batched decodes); the reported TTFT is the mean across the ``n``
    requests, and the mean queueing delay is recorded alongside it.  Pass a
    ``tracer`` to capture every level's schedule (request spans, GPU batches,
    link transfers) on one exportable timeline.

    ``gpu_workers`` re-derives the curve as a fleet-level sweep: the same
    arrival pattern dispatched across a pool of GPU workers
    (``python -m repro.experiments figure12-concurrency --gpu-workers 4``).
    With one worker the run is bit-identical to the historical single-GPU
    curve; with more, the queueing component shrinks at high load while the
    shared link stays the bottleneck it is in the paper.
    """
    spec = ServingSpec(
        model=model,
        topology="single",
        bandwidth_gbps=bandwidth_gbps,
        max_decode_batch=max_decode_batch,
        gpu_workers=gpu_workers,
    )
    backend = build_backend(spec)
    backend.attach_tracer(tracer)
    backend.ingest(_KV_CONTEXT, num_tokens)
    question = "What does the context say?"
    prompt_tokens = max(backend.llm.tokenizer.count_tokens(question), 1)

    # The quantization baseline has no backend path: stage the baseline's own
    # load of the same (deterministic) context on the raw event simulator.
    quant_baseline = UniformQuantizationBaseline(8)
    quant_request = LoadRequest(
        record=ContextRecord(
            context_id=_KV_CONTEXT,
            num_tokens=num_tokens,
            prompt_tokens=prompt_tokens,
            task="qa_accuracy",
            question=question,
        ),
        llm=backend.llm,
        reference_kv=backend.llm.calculate_kv(_KV_CONTEXT, num_tokens),
        link=default_link(bandwidth_gbps),
        compute_model=backend.compute_model,
        quality_model=backend.llm.quality_model,
    )

    result = ExperimentResult(
        name="figure12-concurrency",
        description="TTFT vs number of concurrent requests (event-driven)",
        metadata={"num_tokens": num_tokens, "gpu_workers": gpu_workers},
    )
    for n in concurrency_levels:
        for method_name, context_id in (("text", _TEXT_CONTEXT), ("cachegen", _KV_CONTEXT)):
            request = ServeRequest(context_id, question, arrival_s=0.0, num_tokens=num_tokens)
            responses = backend.run([request] * n)
            result.add_row(
                concurrent_requests=n,
                method=method_name,
                ttft_s=sum(r.ttft_s for r in responses) / n,
                queueing_s=sum(r.queueing_s for r in responses) / n,
            )
        simulator = ConcurrentLoadSimulator(
            max_decode_batch=max_decode_batch, gpu_workers=gpu_workers, tracer=tracer
        )
        for _ in range(n):
            quant_baseline.stage(simulator, quant_request)
        timelines = simulator.run()
        result.add_row(
            concurrent_requests=n,
            method=quant_baseline.name,
            ttft_s=sum(t.total_s for t in timelines) / n,
            queueing_s=sum(t.queueing_s for t in timelines) / n,
        )
    return result


def run_figure12_context_length(
    context_lengths: Sequence[int] = (100, 500, 1_000, 3_000, 6_000, 9_000, 15_000),
    bandwidth_gbps: float = 3.0,
    model: str = "mistral-7b",
) -> ExperimentResult:
    """Reproduce Figure 12 (right): TTFT vs context length.

    CacheGen is reported as ``min(cachegen, text)`` because the system reverts
    to the text path whenever that is faster (short contexts).
    """
    workbench = Workbench(model=model, dataset="longchat", num_contexts=1)
    base_record = workbench.records[0]
    link = default_link(bandwidth_gbps)
    methods = workbench.standard_methods(quant_bits=(8,))

    result = ExperimentResult(
        name="figure12-context-length",
        description="TTFT vs context length",
    )
    for num_tokens in context_lengths:
        record = type(base_record)(
            context_id=base_record.context_id,
            num_tokens=num_tokens,
            prompt_tokens=base_record.prompt_tokens,
            task=base_record.task,
            question=base_record.question,
        )
        ttfts: dict[str, float] = {}
        for method_name, method in methods.items():
            outcome = method.evaluate(workbench.request_for(record, link=link))
            ttfts[method_name] = outcome.ttft_s
        ttfts["cachegen"] = min(ttfts["cachegen"], ttfts["text"])
        for method_name, ttft in ttfts.items():
            result.add_row(context_tokens=num_tokens, method=method_name, ttft_s=ttft)
    return result
