"""Offline codec profiles of the serving integration (§5.2).

CacheGen's encoder is fitted once, offline, per model: the symbol
distributions of its arithmetic coder come from sample contexts, not from the
context being encoded.  :func:`profile_codec` produces that profile once per
model and fit configuration in a process — loaded from the shipped counts
files when it can, fitted otherwise — and every
:class:`~repro.serving.api.backends.Backend` and experiment ``Workbench`` of
that model shares it.
"""

from __future__ import annotations

from pathlib import Path

from ..core.config import CacheGenConfig
from ..core.encoder import CacheGenEncoder, FittedCodec, _fit_fields
from ..llm.model_config import ModelConfig, get_model_config
from ..llm.synthetic_model import SyntheticLLM
from .api.spec import _require_servable

__all__ = ["profile_codec"]

#: Number of synthetic sample contexts used to profile the encoder offline.
_PROFILE_SAMPLES = 2
_PROFILE_TOKENS = 1_500

#: Shipped default profiles as integer counts, one ``<model name>.npz`` a
#: model, written by ``scripts/build_profiles.py`` (the models the served
#: workloads and the experiments use).
_PROFILE_DIR = Path(__file__).with_name("profiles")

#: Every profile loaded or taken in this process, by resolved model and
#: ``_fit_fields``.  Unbounded: one entry per distinct key, and a run uses one
#: key per model and fit configuration.
_PROFILES: dict[tuple[ModelConfig, tuple], FittedCodec] = {}


def _profile_key(model: ModelConfig, config: CacheGenConfig) -> str:
    """What a profile file must have been saved under to stand in for a fit."""
    return repr((model, _fit_fields(config), _PROFILE_SAMPLES, _PROFILE_TOKENS))


def _fit_profile(model: ModelConfig, config: CacheGenConfig) -> FittedCodec:
    """``model``'s profile taken afresh: two sample prefills, one table fit per level."""
    llm = SyntheticLLM(model)
    samples = [
        llm.calculate_kv(f"__profile-{i}", _PROFILE_TOKENS) for i in range(_PROFILE_SAMPLES)
    ]
    return CacheGenEncoder(config).fit(samples).codec


def profile_codec(model: ModelConfig | str, config: CacheGenConfig | None = None) -> FittedCodec:
    """``model``'s offline symbol-distribution profile, produced once per process.

    The profile depends only on the model's :class:`ModelConfig` and on the
    configuration fields :class:`~repro.core.encoder.FittedCodec` is keyed
    by, so it is memoized on exactly that: the first call for a key produces
    it, every later one returns the same immutable codec, whatever
    ``chunk_tokens``, default level or entropy-coding switches it passes.
    Every backend built without ``codec=``, and every experiment
    ``Workbench``, shares it through here.

    The first call loads rather than fits when it can.  The default profiles
    of mistral-7b, llama-7b, llama-34b and llama-70b are committed as integer
    counts (``repro/serving/profiles/<model name>.npz``, written by
    ``scripts/build_profiles.py``); a file saved under the request's key —
    the resolved ``ModelConfig``, the fit fields and the sample recipe — is
    read in ≈15 ms and is, bit for bit, the codec a fit would produce.  Any
    other key (another model shape, ``group_size``, levels or ablation
    switch) is fitted: two 1500-token sample prefills and one table fit per
    level, ≈0.5 s.  An entry (0.9 MiB of integer counts when loaded, 5.8 MiB
    once its log-probability tables are scored) lives as long as the process.

    ``TypeError`` for a ``model`` that is neither a name nor a
    :class:`ModelConfig`, or a ``config`` that is neither ``None`` nor a
    :class:`CacheGenConfig`; ``ValueError`` for a profile file that cannot be
    read or holds a malformed field.

    Example
    -------
    >>> codec = profile_codec("mistral-7b")  # doctest: +SKIP
    >>> profile_codec("mistral-7b", CacheGenConfig(chunk_tokens=256)) is codec  # doctest: +SKIP
    True
    """
    if isinstance(model, str):
        model = get_model_config(model)
    elif not isinstance(model, ModelConfig):
        raise TypeError(
            f"model must be a model name or a ModelConfig, not {type(model).__name__}"
        )
    if config is None:
        config = CacheGenConfig()
    elif not isinstance(config, CacheGenConfig):
        raise TypeError(f"config must be a CacheGenConfig or None, not {type(config).__name__}")
    _require_servable(config)
    key = (model, _fit_fields(config))
    codec = _PROFILES.get(key)
    if codec is None:
        path = _PROFILE_DIR / f"{model.name}.npz"
        if path.exists():
            codec = FittedCodec.load(path, config, key=_profile_key(model, config))
        if codec is None:
            codec = _fit_profile(model, config)
        _PROFILES[key] = codec
    return codec
