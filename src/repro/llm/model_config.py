"""Model configurations for the LLMs the paper evaluates.

The paper evaluates CacheGen on fine-tuned long-context versions of
Mistral-7B, Llama-34B and Llama-70B, and uses Llama-7B/13B for the §5.1
insight studies.  We cannot run those checkpoints here, but the codec and the
latency models only need the model *dimensions*: number of transformer layers,
number of KV heads, head dimension, hidden size and parameter count.

Each :class:`ModelConfig` also carries *simulation-scale* dimensions — the
tensor shape we actually materialise when generating synthetic KV caches.
Compressed sizes measured on the simulation tensors are extrapolated to the
full model via bits-per-element accounting (see ``docs/ARCHITECTURE.md``,
"Codec").

The full-model KV byte counts line up with the paper's reported numbers, e.g.
Mistral-7B at ~9.4K tokens is ~1.2 GB in fp16, so its 8-bit-quantized cache is
~620 MB, matching Table 1's 622 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ModelConfig",
    "MISTRAL_7B",
    "LLAMA_7B",
    "LLAMA_13B",
    "LLAMA_34B",
    "LLAMA_70B",
    "LLAMA_3B",
    "MODELS",
    "get_model_config",
]


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of a transformer LLM relevant to KV-cache accounting.

    Parameters
    ----------
    name:
        Human readable model name, e.g. ``"mistral-7b"``.
    num_layers:
        Number of transformer layers (each contributes one K and one V tensor).
    num_kv_heads:
        Number of key/value heads.  Models with grouped-query attention (GQA)
        have fewer KV heads than query heads, which shrinks the KV cache.
    head_dim:
        Per-head dimension.
    hidden_size:
        Model hidden size (used by the FLOPs model).
    num_parameters:
        Total parameter count (used by the FLOPs / prefill-delay model).
    max_context:
        Maximum context length of the fine-tuned long-context variant.
    sim_layers, sim_channels:
        Dimensions of the synthetic KV tensors we materialise for this model.

    Example
    -------
    >>> config = get_model_config("mistral-7b")
    >>> config.num_layers, config.head_dim  # doctest: +SKIP
    """

    name: str
    num_layers: int
    num_kv_heads: int
    head_dim: int
    hidden_size: int
    num_parameters: float
    max_context: int = 32_768
    sim_layers: int = field(default=0)
    sim_channels: int = field(default=32)

    def __post_init__(self) -> None:
        if self.sim_layers <= 0:
            object.__setattr__(self, "sim_layers", min(self.num_layers, 32))

    # ------------------------------------------------------------------ sizes
    @property
    def kv_channels(self) -> int:
        """Channels per K (or V) tensor per layer: ``num_kv_heads * head_dim``."""
        return self.num_kv_heads * self.head_dim

    @property
    def kv_elements_per_token(self) -> int:
        """Number of fp elements (K and V) stored per context token."""
        return 2 * self.num_layers * self.kv_channels

    def kv_cache_bytes(self, num_tokens: int, bits_per_element: float = 16.0) -> float:
        """KV cache size in bytes for ``num_tokens`` at ``bits_per_element``."""
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        return self.kv_elements_per_token * num_tokens * bits_per_element / 8.0

MISTRAL_7B = ModelConfig(
    name="mistral-7b",
    num_layers=32,
    num_kv_heads=8,
    head_dim=128,
    hidden_size=4096,
    num_parameters=7.2e9,
    max_context=32_768,
)

LLAMA_7B = ModelConfig(
    name="llama-7b",
    num_layers=32,
    num_kv_heads=32,
    head_dim=128,
    hidden_size=4096,
    num_parameters=6.7e9,
    max_context=16_384,
)

LLAMA_13B = ModelConfig(
    name="llama-13b",
    num_layers=40,
    num_kv_heads=40,
    head_dim=128,
    hidden_size=5120,
    num_parameters=13.0e9,
    max_context=16_384,
)

LLAMA_34B = ModelConfig(
    name="llama-34b",
    num_layers=48,
    num_kv_heads=8,
    head_dim=128,
    hidden_size=8192,
    num_parameters=34.0e9,
    max_context=32_768,
)

LLAMA_70B = ModelConfig(
    name="llama-70b",
    num_layers=80,
    num_kv_heads=8,
    head_dim=128,
    hidden_size=8192,
    num_parameters=70.0e9,
    max_context=32_768,
    sim_layers=32,
)

#: Small model used by the Appendix-B "smaller model" baseline (Figure 18a).
LLAMA_3B = ModelConfig(
    name="llama-3b",
    num_layers=26,
    num_kv_heads=32,
    head_dim=100,
    hidden_size=3200,
    num_parameters=3.4e9,
    max_context=8_192,
    sim_layers=26,
)

MODELS: dict[str, ModelConfig] = {
    cfg.name: cfg
    for cfg in (MISTRAL_7B, LLAMA_7B, LLAMA_13B, LLAMA_34B, LLAMA_70B, LLAMA_3B)
}


def get_model_config(name: str) -> ModelConfig:
    """Look up a model configuration by name.

    Raises
    ------
    KeyError
        If ``name`` is not one of the known model configurations.

    Example
    -------
    >>> get_model_config("mistral-7b").name
    'mistral-7b'
    """
    try:
        return MODELS[name]
    except KeyError:
        known = ", ".join(sorted(MODELS))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None
