"""Synthetic transformer substrate that produces KV caches.

The paper's codec design rests on three empirical properties of KV caches
(§5.1):

1. **Token-wise locality** — within a layer and channel, values at nearby
   token positions are similar; the deltas between consecutive tokens have a
   variance 2.4-2.9x lower than the original values.
2. **Layer-wise sensitivity** — output quality is more sensitive to losses in
   shallow layers than deep layers.
3. **Channel/layer grouping** — grouping values by channel or layer yields far
   lower entropy than grouping by token position.

:class:`SyntheticLLM` generates KV caches from an autoregressive (AR(1))
process whose parameters are drawn per layer and channel, which reproduces all
three properties (verified by the tests in ``tests/llm`` and the analysis in
``repro.analysis.insights``).  It also exposes the two interfaces the paper
integrates with serving frameworks through (§6):

* :meth:`SyntheticLLM.calculate_kv` — prefill a context into a KV cache.
* :meth:`SyntheticLLM.generate_with_kv` — generate a response given a
  (possibly lossy) KV cache, returning the response together with its quality.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.kv_cache import KVCache
from .model_config import ModelConfig, get_model_config
from .quality import GenerationQuality, QualityModel
from .tokenizer import SyntheticTokenizer

__all__ = ["SyntheticLLM", "GenerationResult"]


def _stable_seed(*parts: object) -> int:
    """Derive a stable 64-bit seed from arbitrary string-able parts."""
    digest = hashlib.sha256("::".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class GenerationResult:
    """Output of :meth:`SyntheticLLM.generate_with_kv`."""

    text: str
    quality: GenerationQuality
    num_generated_tokens: int


class SyntheticLLM:
    """A synthetic LLM that emits statistically realistic KV caches.

    Parameters
    ----------
    config:
        Model configuration (or model name) determining dimensions.
    token_correlation:
        AR(1) coefficient of the fast per-token component.  Together with the
        static and slowly-drifting components (see :meth:`_generate_tensor`)
        the default reproduces the paper's observation that deltas between
        consecutive tokens have 2.4-2.9x lower variance than the original
        values.
    quality_model:
        Surrogate mapping KV distortion to generation quality.  A default is
        constructed if omitted.

    Example
    -------
    >>> llm = SyntheticLLM("mistral-7b")
    >>> kv = llm.calculate_kv("ctx", num_tokens=2_000)  # deterministic per id
    >>> llm.calculate_kv("ctx", num_tokens=2_000).k.shape == kv.k.shape
    True
    """

    def __init__(
        self,
        config: ModelConfig | str,
        token_correlation: float = 0.25,
        quality_model: Optional[QualityModel] = None,
    ) -> None:
        if isinstance(config, str):
            config = get_model_config(config)
        if not 0.0 <= token_correlation < 1.0:
            raise ValueError("token_correlation must be in [0, 1)")
        self.config = config
        self.token_correlation = token_correlation
        self.quality_model = quality_model or QualityModel(num_layers=config.sim_layers)
        self.tokenizer = SyntheticTokenizer()

    # ----------------------------------------------------------------- prefill
    def calculate_kv(self, context_id: str, num_tokens: int) -> KVCache:
        """Prefill a context into a KV cache (the ``calculate_kv`` interface).

        Parameters
        ----------
        context_id:
            Stable identifier of the context (e.g. a dataset record id).  The
            same id always yields the same cache.
        num_tokens:
            Context length in tokens.

        Returns
        -------
        KVCache
            Simulation-scale KV tensors with full-model metadata attached.
        """
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        cfg = self.config
        # The per-(layer, channel) structure (means and scales) is a property
        # of the *model*: the same channels are consistently large or small
        # across contexts, which is what lets CacheGen profile per-channel
        # symbol distributions offline and reuse them for every context.
        structure_rng = np.random.default_rng(_stable_seed(cfg.name, "channel-structure"))
        context_rng = np.random.default_rng(_stable_seed(cfg.name, context_id, "kv"))

        layers, channels = cfg.sim_layers, cfg.sim_channels
        rho = self.token_correlation

        k = self._generate_tensor(structure_rng, context_rng, layers, num_tokens, channels, rho)
        v = self._generate_tensor(structure_rng, context_rng, layers, num_tokens, channels, rho)
        return KVCache(
            k=k,
            v=v,
            model_name=cfg.name,
            full_layers=cfg.num_layers,
            full_channels=cfg.kv_channels,
        )

    #: Standard deviation (in log space) of the per-channel scale spread.
    #: Larger values mean more heterogeneous channels, which is what makes
    #: per-(layer, channel) probability models pay off (Insight 3).
    CHANNEL_SCALE_SIGMA = 0.85
    #: Relative weights of the per-channel mean offset, the slowly drifting
    #: component and the fast (per-token) component.  Calibrated so that the
    #: variance of deltas between consecutive tokens is 2.4-2.9x lower than
    #: the variance of the original values (Insight 1 / Figure 3) while deltas
    #: against a group anchor up to 9 tokens away remain ~2x smaller.
    MEAN_STD = 1.2
    SLOW_STD = 1.3
    FAST_STD = 1.0
    SLOW_CORRELATION = 0.999

    def _generate_tensor(
        self,
        structure_rng: np.random.Generator,
        context_rng: np.random.Generator,
        layers: int,
        tokens: int,
        channels: int,
        rho: float,
    ) -> np.ndarray:
        """Generate one (layers, tokens, channels) tensor.

        Each (layer, channel) value is ``scale * (mu + slow(t) + fast(t))``:

        * ``mu`` is a static per-channel offset,
        * ``slow(t)`` drifts with near-unit correlation across tokens,
        * ``fast(t)`` is an AR(1) component with coefficient ``rho``.

        The static offset and the slow drift are what anchor-based delta
        encoding removes; the fast component sets the variance of the deltas.
        Per-(layer, channel) scales are log-normal, so channels differ widely
        in magnitude — the property that per-channel probability models (and
        Figure 5's grouping-entropy measurement) rely on.  Scales also grow
        mildly with depth, mirroring that different layers occupy different
        value ranges.  Means and scales come from ``structure_rng`` (seeded by
        the model, shared across contexts); the token series come from
        ``context_rng`` (seeded by the context).
        """
        layer_scale = 0.6 + 0.08 * np.arange(layers, dtype=np.float64)[:, None]
        channel_scale = np.exp(
            structure_rng.normal(0.0, self.CHANNEL_SCALE_SIGMA, size=(layers, channels))
        )
        scale = layer_scale * channel_scale
        mean = structure_rng.normal(0.0, self.MEAN_STD, size=(layers, channels))

        fast = self._stationary_ar1(context_rng, (layers, tokens, channels), rho)
        slow = self._stationary_ar1(context_rng, (layers, tokens, channels), self.SLOW_CORRELATION)

        # scale * (mean + SLOW_STD * slow + FAST_STD * fast), combined into
        # ``slow``'s buffer in that order.
        slow *= self.SLOW_STD
        slow += mean[:, None, :]
        fast *= self.FAST_STD
        slow += fast
        slow *= scale[:, None, :]
        return slow.astype(np.float32)

    @staticmethod
    def _stationary_ar1(
        rng: np.random.Generator, shape: tuple[int, int, int], rho: float
    ) -> np.ndarray:
        """Unit-variance AR(1) process along the token axis, stationary from t=0."""
        layers, tokens, channels = shape
        series = rng.standard_normal(size=shape)
        # y[t] = sqrt(1 - rho^2) * noise[t] + rho * y[t-1] from a zero initial
        # condition: the multiply, multiply, add of a first-order IIR filter in
        # direct form II (``scipy.signal.lfilter([gain], [1, -rho], noise)``),
        # whose output the tests hold this loop to bit for bit.
        series *= np.sqrt(1.0 - rho * rho)
        for t in range(1, tokens):
            series[:, t] += rho * series[:, t - 1]
        # The zero initial condition leaves early tokens with reduced variance;
        # add an independently drawn stationary start decayed by rho**t so the
        # process has unit variance at every position.
        start = rng.standard_normal(size=(layers, 1, channels))
        decay = np.power(rho, np.arange(tokens, dtype=np.float64))[None, :, None]
        series += start * decay
        return series

    # --------------------------------------------------------------- attention
    def attention_scores(self, context_id: str, num_tokens: int) -> np.ndarray:
        """Per-token cumulative attention scores used by token-dropping baselines.

        Returns a probability vector over token positions.  Real attention
        score distributions are heavy tailed with a small set of heavy-hitter
        tokens plus a recency bias, which is exactly what H2O and Scissorhands
        exploit; a Zipf-like draw with a recency ramp reproduces that shape.
        """
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        rng = np.random.default_rng(_stable_seed(self.config.name, context_id, "attention"))
        heavy_tail = rng.pareto(0.9, size=num_tokens) + 0.05
        recency = 1.0 + 2.0 * np.linspace(0.0, 1.0, num_tokens)
        scores = heavy_tail * recency
        return (scores / scores.sum()).astype(np.float64)

    # -------------------------------------------------------------- generation
    def generate_with_kv(
        self,
        kv: KVCache,
        reference_kv: Optional[KVCache] = None,
        task: str = "qa_accuracy",
        token_keep_fraction: float = 1.0,
        important_token_coverage: float = 1.0,
        max_new_tokens: int = 32,
    ) -> GenerationResult:
        """Generate a response from a (possibly lossy) KV cache.

        Parameters
        ----------
        kv:
            The KV cache handed to the model (after decode / reconstruction).
        reference_kv:
            The lossless cache for the same context.  If given, the quality
            surrogate scores the generation from the per-layer reconstruction
            error between ``kv`` and ``reference_kv``; if omitted the cache is
            assumed lossless.
        task:
            One of the task names understood by :class:`QualityModel`
            (``"qa_accuracy"``, ``"qa_f1"``, ``"perplexity"``).
        token_keep_fraction:
            Fraction of context tokens retained (``< 1`` for token-dropping
            baselines such as H2O / LLMLingua).
        important_token_coverage:
            Fraction of attention mass covered by the retained tokens; 1.0 for
            methods that keep everything or drop only unimportant tokens.
        max_new_tokens:
            Length of the synthetic response.
        """
        if reference_kv is not None:
            distortion = reference_kv.normalized_distortion_per_layer(kv)
        else:
            distortion = np.zeros(kv.num_layers)
        quality = self.quality_model.score(
            task=task,
            layer_distortion=distortion,
            token_keep_fraction=token_keep_fraction,
            important_token_coverage=important_token_coverage,
        )
        text = self._render_response(kv, quality, max_new_tokens)
        return GenerationResult(text=text, quality=quality, num_generated_tokens=max_new_tokens)

    def _render_response(self, kv: KVCache, quality: GenerationQuality, n: int) -> str:
        """Render a deterministic placeholder response string."""
        status = "faithful" if quality.relative_quality > 0.95 else "degraded"
        return (
            f"[{self.config.name}] {status} response generated from a "
            f"{kv.num_tokens}-token context ({n} tokens)."
        )
