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

import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .config import CacheGenConfig, EncodingLevel
from .delta import anchor_positions, compute_deltas
from .entropy_codec import EntropyEncodedPayload, decode_payloads, encode_payloads
from .kv_cache import KVCache, layer_blocks
from .probability_model import SymbolProbabilityModel
from .quantization import (
    QuantizedTensor,
    bin_quantize,
    layer_bin_sizes,
    layer_std,
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

    Holds the entropy-coded delta payload (a bitstream, or a size only when
    estimated), the per-(layer, channel) dequantization scales, and (when delta
    encoding is on) the separately coded anchor payload and scales.
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
    """One KV cache (or chunk) encoded into CacheGen bitstreams.

    An exact encoding decodes from its bitstreams.  An estimated one keeps
    payload sizes, not symbols, and decodes by quantizing ``source`` again;
    one that :meth:`CacheGenEncoder.encode_with_errors` made keeps no source,
    since its reads are scored from the error statistics taken beside it.
    """

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
    #: The cache an estimated encoding encoded; ``None`` when exact or when
    #: its error statistics were taken instead.
    source: KVCache | None = field(default=None, compare=False, repr=False)

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
    ``CacheGenEncoder(config, codec=...)`` — and every backend constructor
    above it — accepts in place of profiling again.

    One codec may back any number of encoders and backends at once, and
    :func:`~repro.serving.engine.profile_codec` hands every backend of one
    model the same one for the life of the process.
    Nothing reachable from it can be written: the dataclasses are frozen and
    every model's counts, totals, log-probability and coder tables are
    read-only.  The default mistral-7b profile holds 0.9 MiB of them when
    loaded, 5.8 MiB once scored and 8.3 MiB once it has also coded exactly
    (the models' ``int32`` coder tables, 2.5 MiB), because each model keeps
    only the integer counts of the symbol band its samples span.  Neither
    scoring nor exact coding holds anything beyond those tables: each
    ``cross_entropy_bits`` call works in arrays of its own, the size of the
    band of symbols it is given, and each exact call in arrays its coder
    drops.

    A profile is determined by its models' integer counts, so :meth:`save`
    writes those (≈0.2 MiB compressed for a default profile) and :meth:`load`
    rebuilds the same codec from them, bit for bit, through
    ``SymbolProbabilityModel.from_counts``, where every fit ends too.
    mistral-7b's default profile ships as such a file, which
    :func:`~repro.serving.engine.profile_codec` loads instead of fitting.

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

    def save(self, path: str | Path, key: str) -> None:
        """Write the profile to ``path`` as a compressed ``.npz`` of integer counts.

        Each level's delta model is stored under ``<level name>.delta.`` and
        the anchor model of each distinct ``anchor_bits`` under
        ``anchor<bits>.``: its raw counts (``uint16``), ``lo``, ``shape``,
        ``grouping`` and ``smoothing``, all :meth:`load` needs to rebuild it.
        Beside them go ``model_name``, ``sim_dims`` and ``key``, the string
        :meth:`load` must be given to read the file back; it names what the
        profile was taken for, fit fields included.
        """
        arrays = {
            "key": np.array(key),
            "model_name": np.array(self.model_name),
            "sim_dims": np.array(self.sim_dims),
        }
        for name, models in self.level_models.items():
            arrays.update(_count_arrays(f"{name}.delta", models.delta_model))
            if models.anchor_model is not None:
                prefix = f"anchor{models.level.anchor_bits}"
                arrays.update(_count_arrays(prefix, models.anchor_model))
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: str | Path, config: CacheGenConfig, key: str) -> "FittedCodec | None":
        """The profile :meth:`save` wrote to ``path`` under ``key``, rebuilt for ``config``.

        ``None`` when the file was saved under another key.  ``key`` must name
        ``config``'s fit fields: it is the only check that the file was
        profiled for them.  The codec equals the saved one bit for bit: every
        model comes out of :meth:`SymbolProbabilityModel.from_counts`, and the
        levels of one ``anchor_bits`` share one anchor model, as after a fit.
        A file that cannot be read, or lacks or garbles a field, raises
        ``ValueError`` naming the file and the field.
        """
        try:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(f"cannot read codec profile {path}: {exc}") from exc
        try:
            if _scalar(arrays, "key", "U") != key:
                return None
            return _codec_from_arrays(arrays, config)
        except ValueError as exc:
            raise ValueError(f"codec profile {path}: {exc}") from None


def _assemble(
    model_name: str,
    sim_dims: tuple[int, int],
    config: CacheGenConfig,
    level_models: dict[str, LevelCodecModel],
) -> FittedCodec:
    """The codec of ``level_models``, fitted under ``config``."""
    return FittedCodec(
        model_name=model_name,
        sim_dims=sim_dims,
        fit_fields=_fit_fields(config),
        level_models=MappingProxyType(level_models),
    )


def _count_arrays(prefix: str, model: SymbolProbabilityModel) -> dict[str, np.ndarray]:
    """What :meth:`FittedCodec.save` stores of ``model``, under ``prefix``."""
    counts = model.band_counts
    if counts.max(initial=0) >= 1 << 16:
        raise ValueError(f"{prefix}: a count of {counts.max()} does not fit uint16")
    return {
        f"{prefix}.counts": counts.astype(np.uint16, copy=False),
        f"{prefix}.lo": np.array(model.lo),
        f"{prefix}.shape": np.array(model.shape),
        f"{prefix}.grouping": np.array(model.grouping),
        f"{prefix}.smoothing": np.array(model.smoothing),
    }


def _field(arrays: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    array = arrays.get(name)
    if not isinstance(array, np.ndarray):
        raise ValueError(f"field {name!r} is missing or not an array")
    return array


def _scalar(arrays: Mapping[str, np.ndarray], name: str, kinds: str):
    """Field ``name`` as a Python value: a 0-d array of a dtype kind in ``kinds``."""
    array = _field(arrays, name)
    if array.ndim != 0 or array.dtype.kind not in kinds:
        raise ValueError(
            f"field {name!r} must be a scalar of dtype kind {kinds!r}, "
            f"not a {array.ndim}-D {array.dtype} array"
        )
    return array.item()


def _model_from_arrays(arrays: Mapping[str, np.ndarray], prefix: str) -> SymbolProbabilityModel:
    try:
        return SymbolProbabilityModel.from_counts(
            _field(arrays, f"{prefix}.counts"),
            _scalar(arrays, f"{prefix}.lo", "iu"),
            _field(arrays, f"{prefix}.shape"),
            _scalar(arrays, f"{prefix}.grouping", "U"),
            _scalar(arrays, f"{prefix}.smoothing", "f"),
        )
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _codec_from_arrays(arrays: Mapping[str, np.ndarray], config: CacheGenConfig) -> FittedCodec:
    """The codec :meth:`FittedCodec.save` wrote as ``arrays``, for ``config``."""
    sim_dims = _field(arrays, "sim_dims")
    if sim_dims.shape != (2,) or sim_dims.dtype.kind not in "iu":
        raise ValueError(f"field 'sim_dims' must hold two integers, not {sim_dims!r}")
    anchor_models: dict[int, SymbolProbabilityModel] = {}
    level_models: dict[str, LevelCodecModel] = {}
    for level in config.levels:
        bits = level.anchor_bits
        if config.use_delta and bits not in anchor_models:
            anchor_models[bits] = _model_from_arrays(arrays, f"anchor{bits}")
        level_models[level.name] = LevelCodecModel(
            level=level,
            delta_model=_model_from_arrays(arrays, f"{level.name}.delta"),
            anchor_model=anchor_models.get(bits),
        )
    layers, channels = (int(extent) for extent in sim_dims)
    return _assemble(_scalar(arrays, "model_name", "U"), (layers, channels), config, level_models)


def _decode_symbols(
    models: LevelCodecModel, streams: tuple[EncodedTensorStream, ...]
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """``(delta, anchor)`` symbols of each exactly coded stream, off its bitstreams."""
    # One batch per call: the payloads share a loop and two tables.
    coded = [
        (model, payload)
        for stream in streams
        for model, payload in (
            (models.delta_model, stream.delta_payload),
            (models.anchor_model, stream.anchor_payload),
        )
        if payload is not None
    ]
    symbols = iter(decode_payloads(coded))
    return [
        (next(symbols), None if stream.anchor_payload is None else next(symbols))
        for stream in streams
    ]


def _token_major_sum_of_squares(decoded: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-layer float64 ``sum((decoded - reference) ** 2)`` of token-major arrays.

    ``reference`` may be a view in any layout.  It is upcast inside the
    float64 subtract, which is exact, so a float32 reference gives the bits a
    float64 copy of it would.
    """
    diff = decoded.astype(np.float64)
    diff -= reference
    return np.einsum("tlc,tlc->l", diff, diff)


def _dequantize(symbols: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``symbols * scale`` in float32 as the decoder takes it, but token-major."""
    values = symbols.transpose(1, 0, 2).astype(np.float32, order="C")
    tokens, layers, channels = values.shape
    rows = values.reshape(tokens, layers * channels)  # a view: one row per token
    rows *= np.broadcast_to(scale, (layers, channels)).reshape(-1)
    return values


def _squared_error(
    tensor: _PreparedTensor,
    original: np.ndarray,
    stream: EncodedTensorStream,
    delta_symbols: np.ndarray,
    anchor_symbols: np.ndarray | None,
    group_size: int,
) -> np.ndarray:
    """Per-layer float64 ``sum((decoded - original) ** 2)`` of one K or V tensor.

    ``decoded`` is what ``CacheGenDecoder`` reconstructs from the symbols,
    value for value: each token's float32 delta added to its group's float32
    anchor.  It is built token-major, without scattering the deltas into a
    tensor, and diffed against views of ``original`` itself, the non-anchor
    tokens a :func:`~repro.core.kv_cache.layer_blocks` block at a time: the
    float64 temporaries are one block, and each layer's sum is the one the
    whole tensor gives, bit for bit.  Levels of one ``anchor_bits`` have the
    same anchor symbols and scales, so the anchors' error (a tenth of the
    tokens, taken whole) is summed once per ``anchor_bits``.
    """
    reference = original.transpose(1, 0, 2)  # a token-major view
    if anchor_symbols is not None:
        bits = stream.anchor_bits
        anchors = _dequantize(anchor_symbols, stream.anchor_scale)
        if bits not in tensor.anchor_errors:
            tensor.anchor_errors[bits] = _token_major_sum_of_squares(
                anchors, reference[::group_size]
            )
        groups = len(reference) // group_size  # complete groups
        width = group_size - 1
    error = np.empty(len(original))
    for block in layer_blocks(len(original), original[:1].size):
        deltas = _dequantize(delta_symbols[block], stream.delta_scale[block])
        if anchor_symbols is None:
            error[block] = _token_major_sum_of_squares(deltas, reference[:, block])
            continue
        _, layers, channels = deltas.shape
        body = deltas[: groups * width].reshape(groups, width, layers * channels)
        body += anchors[:groups, block].reshape(groups, 1, layers * channels)
        if groups * width < len(deltas):  # the last, partial group
            deltas[groups * width :] += anchors[groups, block]
        # Less the non-anchor tokens of ``reference``, as views: each complete
        # group's past its anchor, then the partial group's.
        diff = deltas.astype(np.float64)
        grouped = reference[: groups * group_size, block]
        diff[: groups * width].reshape(groups, width, layers, channels)[...] -= grouped.reshape(
            groups, group_size, layers, channels
        )[:, 1:]
        diff[groups * width :] -= reference[groups * group_size + 1 :, block]
        error[block] = np.einsum("tlc,tlc->l", diff, diff)
    return error if anchor_symbols is None else tensor.anchor_errors[bits] + error


@dataclass
class _PreparedTensor:
    """What quantizing one K or V tensor needs that no encoding level changes."""

    #: Non-anchor tokens' deltas, or the raw tensor when delta encoding is off.
    deltas: np.ndarray
    #: :func:`layer_std` of ``deltas``.
    std: np.ndarray
    anchors: np.ndarray | None
    #: ``anchor_bits -> quantized anchors``, filled as levels are quantized.
    anchor_symbols: dict[int, QuantizedTensor] = field(default_factory=dict)
    #: ``id(anchor model) -> anchor payload``, filled as levels are encoded:
    #: levels that share an anchor model share the payload.
    anchor_payloads: dict[int, EntropyEncodedPayload] = field(default_factory=dict)
    #: ``anchor_bits -> the anchors' per-layer squared error``, filled by
    #: :func:`_squared_error` as levels are encoded.
    anchor_errors: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class _PreparedKV:
    """A KV cache together with the level-independent half of its encoding.

    :meth:`CacheGenEncoder.encode_with_errors` and :meth:`CacheGenEncoder.fit`
    quantize one in place of the cache at every level; the first fills
    ``tensors`` and the others reuse them, so a cache is decomposed once.
    """

    kv: KVCache
    #: Preparations of ``kv.k`` and ``kv.v``; ``None`` until first encoded.
    tensors: tuple[_PreparedTensor, _PreparedTensor] | None = None
    #: Level name -> :func:`_squared_error` of K plus V at that level, filled
    #: by :meth:`CacheGenEncoder.encode` when not ``None``.
    errors: dict[str, np.ndarray] | None = None

    @property
    def nbytes(self) -> int:
        """``KVCache.nbytes``, for callers that meter ``encode`` by its input's size."""
        return self.kv.nbytes


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
    >>> encodings, errors = encoder.encode_with_errors(kv_chunk)   # one preparation, every level
    >>> list(encodings)
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
        prepared = [_PreparedKV(kv) for kv in sample_caches]
        level_models: dict[str, LevelCodecModel] = {}
        anchor_models: dict[int, SymbolProbabilityModel] = {}
        for level in cfg.levels:
            deltas, anchors = zip(*(pair for p in prepared for pair in self.quantize(p, level)))
            delta_model = SymbolProbabilityModel.fit(
                [delta.symbols for delta in deltas], grouping=grouping
            )
            del deltas  # most of what a fit holds; freed before the anchor fit
            if cfg.use_delta and level.anchor_bits not in anchor_models:
                anchor_models[level.anchor_bits] = SymbolProbabilityModel.fit(
                    [anchor.symbols for anchor in anchors], grouping=grouping
                )
            level_models[level.name] = LevelCodecModel(
                level=level,
                delta_model=delta_model,
                anchor_model=anchor_models.get(level.anchor_bits),
            )
        first = sample_caches[0]
        self.codec = _assemble(
            first.model_name, (first.num_layers, first.num_channels), cfg, level_models
        )
        return self

    # ----------------------------------------------------------------- encode
    def quantize(
        self, kv: KVCache | _PreparedKV, level: EncodingLevel | str | int | None = None
    ) -> tuple[tuple[QuantizedTensor, QuantizedTensor | None], ...]:
        """``((K delta, K anchors), (V delta, V anchors))`` of a KV cache at ``level``.

        The lossy, deterministic half of :meth:`encode`; anchors are ``None``
        without delta encoding.  Decoding an estimated encoding calls it again.
        """
        level = self._level(level)
        prepared = kv if isinstance(kv, _PreparedKV) else _PreparedKV(kv)
        if prepared.tensors is None:
            prepared.tensors = tuple(map(self._prepare_tensor, (prepared.kv.k, prepared.kv.v)))
        quantized = []
        for tensor in prepared.tensors:
            bits, cache = level.anchor_bits, tensor.anchor_symbols
            if tensor.anchors is not None and bits not in cache:
                cache[bits] = vectorwise_quantize(tensor.anchors, bits)
            bins = self._effective_bins(tensor.deltas.shape[0], level)
            delta = bin_quantize(tensor.deltas, bins, std=tensor.std)
            quantized.append((delta, cache.get(bits)))
        return tuple(quantized)

    def encode(
        self, kv: KVCache | _PreparedKV, level: EncodingLevel | str | int | None = None
    ) -> EncodedKV:
        """Encode a KV cache (or chunk) at the given encoding level.

        :meth:`quantize`, then entropy-code.  :meth:`encode_with_errors` passes
        the cache wrapped in the preparation its levels share.
        """
        self._require_fitted()
        level = self._level(level)
        models = self.codec.level_models[level.name]
        prepared = kv if isinstance(kv, _PreparedKV) else _PreparedKV(kv)
        quantized = self.quantize(prepared, level)
        # Levels that share an anchor model share its payloads: only the first codes them.
        shared = id(models.anchor_model)
        fresh = [
            (tensor, anchor)
            for tensor, (_, anchor) in zip(prepared.tensors, quantized)
            if anchor is not None and shared not in tensor.anchor_payloads
        ]
        # One batch per call: under exact coding its payloads share a loop and two tables.
        payloads = self._entropy_encode(
            [(models.delta_model, delta.symbols, None) for delta, _ in quantized]
            + [(models.anchor_model, anchor.symbols, level.anchor_bits) for _, anchor in fresh]
        )
        for (tensor, _), payload in zip(fresh, payloads[len(quantized) :]):
            tensor.anchor_payloads[shared] = payload
        k_stream, v_stream = (
            EncodedTensorStream(
                delta_payload=payload,
                delta_scale=delta.scale,
                delta_bins=np.asarray(delta.bin_sizes),
                anchor_payload=tensor.anchor_payloads.get(shared),
                anchor_scale=None if anchor is None else anchor.scale,
                anchor_bits=None if anchor is None else level.anchor_bits,
            )
            for tensor, (delta, anchor), payload in zip(prepared.tensors, quantized, payloads)
        )
        kv = prepared.kv
        if prepared.errors is not None:
            # Exact: a real decode of the bitstreams, so every stored byte is
            # proved once.  Estimated: the symbols just quantized.
            streams = (k_stream, v_stream)
            pairs = (
                _decode_symbols(models, streams)
                if payloads[0].exact
                else [
                    (delta.symbols, None if anchor is None else anchor.symbols)
                    for delta, anchor in quantized
                ]
            )
            prepared.errors[level.name] = sum(
                _squared_error(tensor, original, stream, delta, anchor, self.config.group_size)
                for tensor, original, stream, (delta, anchor) in zip(
                    prepared.tensors, (kv.k, kv.v), streams, pairs
                )
            )
        return EncodedKV(
            model_name=kv.model_name,
            level=level,
            num_tokens=kv.num_tokens,
            group_size=self.config.group_size,
            k_stream=k_stream,
            v_stream=v_stream,
            sim_shape=kv.shape,
            scale_factor=kv.scale_factor,
            full_layers=kv.full_layers,
            full_channels=kv.full_channels,
            source=None if payloads[0].exact or prepared.errors is not None else kv,
        )

    def encode_with_errors(
        self, kv: KVCache
    ) -> tuple[dict[str, EncodedKV], dict[str, np.ndarray]]:
        """Encode a KV cache at every level, with each level's per-layer squared error.

        The error of a level is ``sum((decoded - kv) ** 2)`` over tokens and
        channels, K and V added, in float64, where ``decoded`` holds exactly
        the float32 values :class:`~repro.core.decoder.CacheGenDecoder` gives:
        it is taken from the symbols :meth:`encode` quantized (exact coding:
        decoded back from the bitstreams), never by quantizing again.  With
        it a read is scored without the tensor, so the encodings keep no
        ``source``.

        Beside its input it holds both tensors' prepared deltas, one level's
        symbols and one block of whichever pass runs: every pass over a
        tensor (quantizing, counting symbols, the error statistics) works a
        :func:`~repro.core.kv_cache.layer_blocks` block at a time, and no
        full-size reference or float64 copy is kept.  On one 1,500-token
        mistral-7b chunk that peaks at 21.0 MiB above the chunk.
        """
        prepared = _PreparedKV(kv, errors={})
        encodings = {level.name: self.encode(prepared, level) for level in self.config.levels}
        return encodings, prepared.errors

    # ------------------------------------------------------------ inner pieces
    def _level(self, level: EncodingLevel | str | int | None) -> EncodingLevel:
        """The configured level ``level`` names; the default level for ``None``."""
        cfg = self.config
        return cfg.levels[cfg.level_index(cfg.default_level if level is None else level)]

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
            del decomposition  # its full delta tensor, gone before layer_std's temporary
        return _PreparedTensor(deltas=tensor, std=layer_std(tensor), anchors=anchors)

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
        # Quantization-only: size fixed-width symbols (no entropy coding).
        payloads = []
        for _, symbols, bits in tensors:
            if bits is None:
                # Not np.abs: on int8 symbols it maps -128 to itself.
                max_symbol = max(-int(symbols.min(initial=0)), int(symbols.max(initial=0)), 1)
                bits = float(np.ceil(np.log2(2 * max_symbol + 1)))
            payloads.append(
                EntropyEncodedPayload(
                    bits=float(bits) * symbols.size, shape=tuple(symbols.shape), exact=False
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
        return self.codec.level_models[self._level(level).name]
