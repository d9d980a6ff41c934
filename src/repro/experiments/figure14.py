"""Figure 14: overhead breakdowns.

(a) TTFT breakdown (network / decode / compute) for text, quantization and
CacheGen; (b) prefill vs decode FLOPs; (c) offline encode delay vs
quantization; (d) storage cost of CacheGen's multiple encoded versions vs the
quantized and uncompressed caches.
"""

from __future__ import annotations

from ..baselines.uniform_quant import quantized_bytes
from ..streaming.chunking import prepare_chunks
from .common import ExperimentResult, Workbench, default_link

__all__ = ["run_figure14"]


def run_figure14(
    model: str = "mistral-7b",
    dataset: str = "longchat",
    num_tokens: int = 9_400,
    bandwidth_gbps: float = 3.0,
) -> ExperimentResult:
    """Reproduce Figure 14 (TTFT, FLOPs, offline delay and storage breakdowns)."""
    workbench = Workbench(model=model, dataset=dataset, num_contexts=1)
    base_record = workbench.records[0]
    record = type(base_record)(
        context_id=base_record.context_id,
        num_tokens=num_tokens,
        prompt_tokens=base_record.prompt_tokens,
        task=base_record.task,
        question=base_record.question,
    )
    link = default_link(bandwidth_gbps)
    compute = workbench.compute
    result = ExperimentResult(
        name="figure14",
        description="TTFT / FLOPs / offline delay / storage breakdowns",
        metadata={"model": model, "num_tokens": num_tokens},
    )

    # (a) TTFT breakdown per method.
    for method_name, method in workbench.standard_methods(quant_bits=(8,)).items():
        outcome = method.evaluate(workbench.request_for(record, link=link))
        result.add_row(
            panel="ttft_breakdown",
            method=method_name,
            network_s=outcome.breakdown.network_s,
            decode_s=outcome.breakdown.decode_s,
            compute_s=outcome.breakdown.compute_s,
            total_s=outcome.ttft_s,
        )

    # (b) compute breakdown in TFLOPs.
    result.add_row(
        panel="flops",
        method="text",
        prefill_tflops=compute.prefill_flops(num_tokens) / 1e12,
        decode_tflops=0.0,
    )
    result.add_row(
        panel="flops",
        method="cachegen",
        prefill_tflops=compute.prefill_flops(record.prompt_tokens) / 1e12,
        decode_tflops=compute.decode_flops(num_tokens) / 1e12,
    )

    # (c) offline preparation delay: quantizing vs CacheGen encoding.
    reference = workbench.reference_kv(record)
    quant_delay = compute.encode_flops(num_tokens) / compute.gpu.effective_flops
    encode_delay = compute.encode_delay(num_tokens) * len(workbench.encoder.config.levels)
    result.add_row(panel="offline_delay", method="quantization", delay_s=quant_delay)
    result.add_row(panel="offline_delay", method="cachegen", delay_s=encode_delay)

    # (d) storage cost of each representation.
    quant_bytes = quantized_bytes(reference, 8)
    prepared = prepare_chunks(reference, workbench.encoder)
    per_level: dict[str, float] = {}
    for chunk in prepared:
        for level_name, encoded in chunk.encodings.items():
            per_level[level_name] = per_level.get(level_name, 0.0) + encoded.compressed_bytes
    result.add_row(panel="storage", representation="uncompressed-fp16", size_gb=reference.full_nbytes / 1e9)
    result.add_row(panel="storage", representation="quantized-8bit", size_gb=quant_bytes / 1e9)
    for level_name, size in per_level.items():
        result.add_row(panel="storage", representation=f"cachegen-{level_name}", size_gb=size / 1e9)
    result.add_row(
        panel="storage",
        representation="cachegen-all-levels",
        size_gb=sum(per_level.values()) / 1e9,
    )
    return result
