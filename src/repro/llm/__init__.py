"""Synthetic LLM substrate: model configs, KV generation, quality and compute models."""

from .attention import TokenSelection, coverage_of, select_heavy_hitters, select_uniform
from .compute_model import A40, A100, ComputeModel, GPUSpec
from .model_config import (
    LLAMA_3B,
    LLAMA_7B,
    LLAMA_13B,
    LLAMA_34B,
    LLAMA_70B,
    MISTRAL_7B,
    MODELS,
    ModelConfig,
    get_model_config,
)
from .quality import TASK_METRICS, GenerationQuality, QualityModel
from .synthetic_model import GenerationResult, SyntheticLLM
from .tokenizer import SyntheticTokenizer

__all__ = [
    "A100",
    "A40",
    "ComputeModel",
    "GPUSpec",
    "GenerationQuality",
    "GenerationResult",
    "LLAMA_13B",
    "LLAMA_34B",
    "LLAMA_3B",
    "LLAMA_70B",
    "LLAMA_7B",
    "MISTRAL_7B",
    "MODELS",
    "ModelConfig",
    "QualityModel",
    "SyntheticLLM",
    "SyntheticTokenizer",
    "TASK_METRICS",
    "TokenSelection",
    "coverage_of",
    "get_model_config",
    "select_heavy_hitters",
    "select_uniform",
]
