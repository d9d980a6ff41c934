"""The CacheGen KV cache encoder.

The encoder implements §5.2 of the paper: change-based (anchor/delta)
encoding, layer-wise quantization of the delta tensors, 8-bit vectorwise
quantization of the anchor tokens, and arithmetic coding driven by
per-(layer, channel) probability distributions profiled offline for the
serving model.

The encoder is *fit once per model* on a handful of sample KV caches
(:meth:`CacheGenEncoder.fit`), mirroring the paper's offline profiling, and
then encodes any KV cache (typically one context chunk at a time) at any of
the configured encoding levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .config import CacheGenConfig, EncodingLevel
from .delta import anchor_positions, compute_deltas
from .entropy_codec import EntropyEncodedPayload, encode_payloads
from .kv_cache import KVCache
from .probability_model import ScoringScratch, SymbolProbabilityModel
from .quantization import (
    QuantizedTensor,
    bin_quantize,
    layer_bin_sizes,
    layer_std,
    narrowest_symbols,
    vectorwise_quantize,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..llm.model_config import ModelConfig

__all__ = [
    "CacheGenEncoder",
    "EncodedKV",
    "EncodedTensorStream",
    "FittedCodec",
    "LevelCodecModel",
]


@dataclass
class EncodedTensorStream:
    """Encoded representation of a single K or V tensor.

    Holds everything the decoder needs: the entropy-coded delta payload, the
    per-(layer, channel) dequantization scales, and (when delta encoding is
    on) the separately coded anchor payload and scales.
    """

    delta_payload: EntropyEncodedPayload
    delta_scale: np.ndarray
    delta_bins: np.ndarray
    anchor_payload: EntropyEncodedPayload | None
    anchor_scale: np.ndarray | None
    anchor_bits: int | None

    @property
    def payload_bits(self) -> float:
        bits = self.delta_payload.bits
        if self.anchor_payload is not None:
            bits += self.anchor_payload.bits
        return bits

    @property
    def metadata_bytes(self) -> int:
        """Side-information bytes: fp16 scales for deltas and anchors."""
        count = self.delta_scale.size
        if self.anchor_scale is not None:
            count += self.anchor_scale.size
        return 2 * count


@dataclass
class EncodedKV:
    """One KV cache (or chunk) encoded into CacheGen bitstreams."""

    model_name: str
    level: EncodingLevel
    num_tokens: int
    group_size: int
    k_stream: EncodedTensorStream
    v_stream: EncodedTensorStream
    sim_shape: tuple[int, int, int]
    scale_factor: float
    full_layers: int
    full_channels: int

    @property
    def payload_bits(self) -> float:
        return self.k_stream.payload_bits + self.v_stream.payload_bits

    @property
    def sim_metadata_bytes(self) -> int:
        return self.k_stream.metadata_bytes + self.v_stream.metadata_bytes

    @property
    def sim_compressed_bytes(self) -> float:
        """Compressed size of the simulation-scale tensors, in bytes."""
        return self.payload_bits / 8.0 + self.sim_metadata_bytes

    @property
    def compressed_bytes(self) -> float:
        """Compressed size extrapolated to the full model, in bytes."""
        return self.sim_compressed_bytes * self.scale_factor

    @property
    def sim_num_elements(self) -> int:
        layers, tokens, channels = self.sim_shape
        return 2 * layers * tokens * channels

    @property
    def bits_per_element(self) -> float:
        """Average compressed bits per KV element (metadata amortised)."""
        return self.sim_compressed_bytes * 8.0 / self.sim_num_elements


@dataclass(frozen=True)
class LevelCodecModel:
    """Probability models fitted for one encoding level.

    Levels with the same ``anchor_bits`` share one ``anchor_model`` object:
    their anchor symbols are the same, so one profile serves them all.
    """

    level: EncodingLevel
    delta_model: SymbolProbabilityModel
    anchor_model: SymbolProbabilityModel | None


#: The :class:`CacheGenConfig` fields :meth:`CacheGenEncoder.fit` reads; a
#: profile holds for any configuration that agrees on them (``chunk_tokens``,
#: the default level and the entropy-coding switches are free to differ).
_FIT_FIELDS = ("levels", "group_size", "use_delta", "use_layerwise_quant", "probability_grouping")


def _fit_fields(config: CacheGenConfig) -> tuple:
    return tuple(getattr(config, name) for name in _FIT_FIELDS)


@dataclass(frozen=True)
class FittedCodec:
    """The outcome of one offline profiling run: every level's fitted models.

    The paper profiles its symbol distributions once per LLM and reuses them
    for every context (§5.2); this is that profile as a value.  It is what
    :meth:`CacheGenEncoder.fit` produces (``encoder.codec``) and what
    ``CacheGenEncoder(config, codec=...)`` — and every engine and backend
    constructor above it — accepts in place of profiling again.

    One codec may back any number of encoders, engines and backends at once,
    and :func:`~repro.serving.engine.profile_codec` hands every engine of one
    model the same one for the life of the process.
    Nothing reachable from it can be written: the dataclasses are frozen and
    every model's band, totals and log-probability tables are read-only.  The
    default mistral-7b profile holds ≈10 MiB of them once scored, because each
    model keeps only the symbol band its samples span.  The one
    :class:`~repro.core.probability_model.ScoringScratch` (4 MiB) is shared
    too, which is safe because the stack is single-threaded and the scratch is
    all zeros between ``cross_entropy_bits`` calls, whichever encoder made the
    call.

    Example
    -------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> sample = KVCache(k=rng.standard_normal((4, 40, 8)), v=rng.standard_normal((4, 40, 8)))
    >>> codec = CacheGenEncoder().fit([sample]).codec
    >>> CacheGenEncoder(CacheGenConfig(chunk_tokens=256), codec=codec).is_fitted
    True
    >>> codec.check(CacheGenConfig(group_size=5))  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    ValueError: codec was profiled with group_size=10, but the configuration has group_size=5; ...
    """

    #: ``KVCache.model_name`` of the sample caches the profile was taken from.
    model_name: str
    #: ``(layers, channels)`` of those caches: one probability context per pair.
    sim_dims: tuple[int, int]
    #: Values of ``_FIT_FIELDS`` in the configuration it was fitted under.
    fit_fields: tuple
    #: Level name -> fitted models (read-only mapping).
    level_models: Mapping[str, LevelCodecModel]

    def check(self, config: CacheGenConfig, model: "ModelConfig | None" = None) -> None:
        """Raise ``ValueError`` unless the profile was taken for ``config`` (and ``model``).

        ``model`` must match by name and by simulated ``(sim_layers,
        sim_channels)``: a profile of another shape has another number of
        per-(layer, channel) distributions and could not code one symbol.
        """
        if model is not None:
            if model.name != self.model_name:
                raise ValueError(
                    f"codec was profiled for model {self.model_name!r}, not {model.name!r}"
                )
            if (model.sim_layers, model.sim_channels) != self.sim_dims:
                layers, channels = self.sim_dims
                raise ValueError(
                    f"codec was profiled for {self.model_name!r} at {layers} layers x "
                    f"{channels} channels, not {model.sim_layers} x {model.sim_channels}"
                )
        for name, fitted, wanted in zip(_FIT_FIELDS, self.fit_fields, _fit_fields(config)):
            if fitted != wanted:
                raise ValueError(
                    f"codec was profiled with {name}={fitted!r}, but the configuration "
                    f"has {name}={wanted!r}; profile a codec for this configuration"
                )


@dataclass
class _PreparedTensor:
    """What quantizing one K or V tensor needs that no encoding level changes."""

    #: Non-anchor tokens' deltas, or the raw tensor when delta encoding is off.
    deltas: np.ndarray
    #: :func:`layer_std` of ``deltas``.
    std: np.ndarray
    anchors: np.ndarray | None
    #: ``id(anchor model) -> (anchor scale, anchor payload)``, filled as levels
    #: are encoded: a model is fitted for one ``anchor_bits``, so levels that
    #: share the model share the anchor symbols and hence the payload.
    anchor_cache: dict[int, tuple[np.ndarray, EntropyEncodedPayload]] = field(
        default_factory=dict
    )


@dataclass
class _PreparedKV:
    """A KV cache together with the level-independent half of its encoding.

    :meth:`CacheGenEncoder.encode_all_levels` makes one per cache and hands it
    to :meth:`CacheGenEncoder.encode` in place of the cache; the first
    ``encode`` fills ``tensors`` and the other levels reuse them, so a chunk
    pays for its decomposition once.
    """

    kv: KVCache
    #: Preparations of ``kv.k`` and ``kv.v``; ``None`` until first encoded.
    tensors: tuple[_PreparedTensor, _PreparedTensor] | None = None

    @property
    def nbytes(self) -> int:
        """``KVCache.nbytes``, for callers that meter ``encode`` by its input's size."""
        return self.kv.nbytes


def _narrowed(quantized: QuantizedTensor) -> QuantizedTensor:
    """``quantized`` with its symbols as a payload carries them (:func:`narrowest_symbols`).

    Delta symbols are clipped to +/-255 and anchors have at most 9 bits, so
    ``int16`` always holds them and ``int8`` does whenever their range fits;
    nothing is lost either way.  Narrowing each tensor as it is quantised keeps
    a chunk's K and V symbols from both being alive at ``int32``.
    """
    return replace(quantized, symbols=narrowest_symbols(quantized.symbols))


class CacheGenEncoder:
    """Encodes KV caches into compact bitstream representations.

    Parameters
    ----------
    config:
        Codec configuration; the default reproduces the paper's settings.
    codec:
        A :class:`FittedCodec` profiled earlier for this configuration; the
        encoder is then fitted from construction.  ``ValueError`` if it was
        profiled under another configuration.

    Usage
    -----
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> sample = KVCache(k=rng.standard_normal((4, 40, 8)), v=rng.standard_normal((4, 40, 8)))
    >>> encoder = CacheGenEncoder().fit([sample])
    >>> kv_chunk = sample.slice_tokens(0, 20)
    >>> encoder.encode(kv_chunk).level.name         # default level
    'medium'
    >>> encoder.encode(kv_chunk, "low").payload_bits < encoder.encode(kv_chunk).payload_bits
    True
    >>> list(encoder.encode_all_levels(kv_chunk))   # one preparation, every level
    ['high', 'medium', 'low', 'lowest']
    """

    def __init__(
        self, config: CacheGenConfig | None = None, codec: FittedCodec | None = None
    ) -> None:
        self.config = config or CacheGenConfig()
        if codec is not None:
            codec.check(self.config)
        #: The fitted models; ``None`` until :meth:`fit` (or ``codec=``).
        self.codec: FittedCodec | None = codec

    # -------------------------------------------------------------------- fit
    @property
    def is_fitted(self) -> bool:
        return self.codec is not None

    @property
    def level_models(self) -> Mapping[str, LevelCodecModel]:
        return dict(self.codec.level_models) if self.codec is not None else {}

    def fit(self, sample_caches: list[KVCache]) -> "CacheGenEncoder":
        """Profile per-(layer, channel) symbol distributions from sample caches.

        The paper profiles one distribution per channel-layer combination of
        the delta tensors, plus one for the anchor tensors, per LLM, and then
        reuses them for every KV cache that model produces.  The anchor
        symbols depend on the level only through ``anchor_bits``, so one anchor
        model is fitted per distinct ``anchor_bits`` and shared by its levels.
        """
        if not sample_caches:
            raise ValueError("at least one sample KV cache is required to fit the encoder")
        cfg = self.config
        grouping = cfg.probability_grouping
        prepared = [self._prepare_tensor(t) for kv in sample_caches for t in (kv.k, kv.v)]
        level_models: dict[str, LevelCodecModel] = {}
        anchor_models: dict[int, SymbolProbabilityModel] = {}
        for level in cfg.levels:
            delta_model = SymbolProbabilityModel.fit(
                [_narrowed(self._quantize_deltas(p, level)).symbols for p in prepared],
                grouping=grouping,
            )
            if cfg.use_delta and level.anchor_bits not in anchor_models:
                anchor_models[level.anchor_bits] = SymbolProbabilityModel.fit(
                    [
                        _narrowed(vectorwise_quantize(p.anchors, level.anchor_bits)).symbols
                        for p in prepared
                    ],
                    grouping=grouping,
                )
            level_models[level.name] = LevelCodecModel(
                level=level,
                delta_model=delta_model,
                anchor_model=anchor_models.get(level.anchor_bits),
            )
        # Models are scored one at a time, so one scratch table serves them all.
        scratch = ScoringScratch()
        for model in [m.delta_model for m in level_models.values()] + list(anchor_models.values()):
            model.scratch = scratch
        first = sample_caches[0]
        self.codec = FittedCodec(
            model_name=first.model_name,
            sim_dims=(first.num_layers, first.num_channels),
            fit_fields=_fit_fields(cfg),
            level_models=MappingProxyType(level_models),
        )
        return self

    # ----------------------------------------------------------------- encode
    def encode(
        self, kv: KVCache | _PreparedKV, level: EncodingLevel | str | int | None = None
    ) -> EncodedKV:
        """Encode a KV cache (or chunk) at the given encoding level.

        :meth:`encode_all_levels` passes the cache wrapped in the preparation
        its levels share; any other caller passes the cache.
        """
        self._require_fitted()
        cfg = self.config
        if level is None:
            level = cfg.default_level
        level_obj = cfg.levels[cfg.level_index(level)]
        models = self.codec.level_models[level_obj.name]
        prepared = kv if isinstance(kv, _PreparedKV) else _PreparedKV(kv)
        kv = prepared.kv
        if prepared.tensors is None:
            prepared.tensors = self._prepare_tensor(kv.k), self._prepare_tensor(kv.v)
        tensors = prepared.tensors
        # Levels that share an anchor model share its payloads: only the first codes them.
        shared = id(models.anchor_model)
        fresh = [t for t in tensors if t.anchors is not None and shared not in t.anchor_cache]
        deltas = [_narrowed(self._quantize_deltas(t, level_obj)) for t in tensors]
        anchors = [_narrowed(vectorwise_quantize(t.anchors, level_obj.anchor_bits)) for t in fresh]
        # One batch per call: under exact coding its payloads share a loop and two tables.
        payloads = self._entropy_encode(
            [(models.delta_model, delta.symbols, None) for delta in deltas]
            + [(models.anchor_model, anchor.symbols, level_obj.anchor_bits) for anchor in anchors]
        )
        for tensor, anchor, payload in zip(fresh, anchors, payloads[len(tensors) :]):
            tensor.anchor_cache[shared] = anchor.scale, payload
        streams = []
        for tensor, delta, payload in zip(tensors, deltas, payloads):
            anchor_scale, anchor_payload = tensor.anchor_cache.get(shared, (None, None))
            streams.append(
                EncodedTensorStream(
                    delta_payload=payload,
                    delta_scale=delta.scale,
                    delta_bins=np.asarray(delta.bin_sizes),
                    anchor_payload=anchor_payload,
                    anchor_scale=anchor_scale,
                    anchor_bits=None if anchor_payload is None else level_obj.anchor_bits,
                )
            )
        k_stream, v_stream = streams
        return EncodedKV(
            model_name=kv.model_name,
            level=level_obj,
            num_tokens=kv.num_tokens,
            group_size=cfg.group_size,
            k_stream=k_stream,
            v_stream=v_stream,
            sim_shape=kv.shape,
            scale_factor=kv.scale_factor,
            full_layers=kv.full_layers,
            full_channels=kv.full_channels,
        )

    def encode_all_levels(self, kv: KVCache) -> dict[str, EncodedKV]:
        """Encode a KV cache at every configured level (offline preparation)."""
        prepared = _PreparedKV(kv)
        return {level.name: self.encode(prepared, level) for level in self.config.levels}

    # ------------------------------------------------------------ inner pieces
    def _prepare_tensor(self, tensor: np.ndarray) -> _PreparedTensor:
        """The level-independent part of quantizing one tensor."""
        cfg = self.config
        tensor = np.asarray(tensor, dtype=np.float32)
        anchors = None
        if cfg.use_delta:
            decomposition = compute_deltas(tensor, cfg.group_size)
            mask = np.ones(decomposition.num_tokens, dtype=bool)
            mask[anchor_positions(decomposition.num_tokens, cfg.group_size)] = False
            tensor, anchors = decomposition.deltas[:, mask, :], decomposition.anchors
        return _PreparedTensor(deltas=tensor, std=layer_std(tensor), anchors=anchors)

    def _quantize_deltas(self, prepared: _PreparedTensor, level: EncodingLevel) -> QuantizedTensor:
        """The per-level part: bin-quantize the prepared deltas."""
        bins = self._effective_bins(prepared.deltas.shape[0], level)
        return bin_quantize(prepared.deltas, bins, std=prepared.std)

    def _effective_bins(self, num_layers: int, level: EncodingLevel) -> np.ndarray:
        cfg = self.config
        if cfg.use_layerwise_quant:
            return layer_bin_sizes(num_layers, level.delta_bins)
        mean_bin = float(np.mean(level.delta_bins))
        return np.full(num_layers, mean_bin)

    def _entropy_encode(
        self, tensors: list[tuple[SymbolProbabilityModel, np.ndarray, float | None]]
    ) -> list[EntropyEncodedPayload]:
        """Entropy-code ``(model, symbols, fixed-width bits)`` triples, honouring the AC ablation switch."""
        cfg = self.config
        if cfg.use_arithmetic_coding:
            return encode_payloads(
                [(model, symbols) for model, symbols, _ in tensors], cfg.exact_entropy_coding
            )
        # Quantization-only: store fixed-width symbols (no entropy coding).
        payloads = []
        for _, symbols, bits in tensors:
            if bits is None:
                # Not np.abs: on int8 symbols it maps -128 to itself.
                max_symbol = max(-int(symbols.min(initial=0)), int(symbols.max(initial=0)), 1)
                bits = float(np.ceil(np.log2(2 * max_symbol + 1)))
            payloads.append(
                EntropyEncodedPayload(
                    bits=float(bits) * symbols.size,
                    shape=tuple(symbols.shape),
                    exact=False,
                    symbols=symbols,
                )
            )
        return payloads

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError(
                "CacheGenEncoder is not fitted; call fit() with sample KV caches first"
            )

    # ----------------------------------------------------------------- helpers
    def model_for_level(self, level: EncodingLevel | str | int) -> LevelCodecModel:
        """Return the probability models fitted for a level."""
        self._require_fitted()
        level_obj = self.config.levels[self.config.level_index(level)]
        return self.codec.level_models[level_obj.name]
