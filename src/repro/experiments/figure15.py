"""Figure 15: ablation of the KV encoder's individual ideas.

Starting from uniform quantization, the ablation progressively adds arithmetic
coding with channel/layer-grouped distributions, change-based (delta)
encoding, and layer-wise quantization, plotting each variant's size-quality
point.
"""

from __future__ import annotations

from ..analysis.ablation import ABLATION_VARIANTS, codec_ablation
from ..serving.engine import profile_codec
from .common import ExperimentResult, Workbench

__all__ = ["run_figure15"]


def run_figure15(
    model: str = "mistral-7b",
    dataset: str = "longchat",
    num_contexts: int = 2,
    context_token_cap: int | None = 6_000,
    level: str = "medium",
) -> ExperimentResult:
    """Reproduce Figure 15 (contribution of each encoder component)."""
    workbench = Workbench(
        model=model,
        dataset=dataset,
        num_contexts=num_contexts,
        context_token_cap=context_token_cap,
    )
    codecs = {
        variant: profile_codec(workbench.model, config)
        for variant, config in ABLATION_VARIANTS.items()
    }

    accumulator: dict[str, list[tuple[float, float, float]]] = {}
    for record in workbench.records:
        kv = workbench.reference_kv(record)
        for point in codec_ablation(
            kv, codecs, workbench.quality_model, task=workbench.dataset.task, level=level
        ):
            accumulator.setdefault(point.variant, []).append(
                (point.bits_per_element, point.relative_size, point.quality)
            )

    result = ExperimentResult(
        name="figure15",
        description="Codec ablation: quantization -> +AC -> +delta -> +layer-wise",
        metadata={"level": level},
    )
    for variant, samples in accumulator.items():
        bpes = [s[0] for s in samples]
        rel_sizes = [s[1] for s in samples]
        qualities = [s[2] for s in samples]
        result.add_row(
            variant=variant,
            bits_per_element=sum(bpes) / len(bpes),
            relative_size=sum(rel_sizes) / len(rel_sizes),
            quality=sum(qualities) / len(qualities),
        )
    return result
