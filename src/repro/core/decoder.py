"""The CacheGen KV cache decoder.

Decoding reverses the encoder's pipeline: entropy-decode the delta and anchor
symbol streams (or, for an estimated encoding, quantize its source again),
dequantize them, and reconstruct the KV tensors by adding each token's delta
back onto its group's anchor token.  The result is a
:class:`~repro.core.kv_cache.KVCache` that differs from the original only by
the quantization error of the chosen encoding level.

In the paper the decoder runs as CUDA kernels pipelined with the network
transfer; the corresponding latency accounting lives in
:class:`repro.llm.ComputeModel` and the event engine's
:class:`~repro.serving.concurrent.processes.ChunkedKVLoad`.
"""

from __future__ import annotations

import numpy as np

from .delta import DeltaDecomposition, anchor_positions, reconstruct_from_deltas
from .encoder import CacheGenEncoder, EncodedKV, EncodedTensorStream, _decode_symbols
from .kv_cache import KVCache

__all__ = ["CacheGenDecoder"]


class CacheGenDecoder:
    """Decodes CacheGen bitstreams back into KV caches.

    Parameters
    ----------
    encoder:
        The fitted encoder whose probability models produced the bitstreams.
        The decoder shares the encoder's configuration and models, exactly as
        the paper's receiver shares the offline-profiled distributions; an
        estimated encoding is quantized again under that configuration.

    Example
    -------
    >>> encoder = CacheGenEncoder()
    >>> encoder.fit([reference_kv])  # doctest: +SKIP
    >>> decoder = CacheGenDecoder(encoder)
    >>> kv = decoder.decode(encoder.encode(reference_kv, level="high"))  # doctest: +SKIP
    """

    def __init__(self, encoder: CacheGenEncoder) -> None:
        self._encoder = encoder

    # ----------------------------------------------------------------- decode
    def decode(self, encoded: EncodedKV) -> KVCache:
        """Reconstruct a KV cache from an encoded chunk.

        An estimated encoding keeps no symbols: :meth:`CacheGenEncoder.quantize`
        of its ``source`` gives them again, bit for bit (``ValueError`` if it
        has no source).  An exact one is entropy-decoded from its bitstreams.
        """
        streams = (encoded.k_stream, encoded.v_stream)
        if encoded.k_stream.delta_payload.exact:
            pairs = _decode_symbols(self._encoder.model_for_level(encoded.level), streams)
        elif encoded.source is None:
            raise ValueError(
                f"estimated encoding at level {encoded.level.name!r} has no source: it stores "
                "only sizes and decodes by quantizing the KV cache it encoded again"
            )
        else:
            pairs = [
                (delta.symbols, None if anchor is None else anchor.symbols)
                for delta, anchor in self._encoder.quantize(encoded.source, encoded.level)
            ]
        k, v = (
            self._reconstruct(stream, encoded, delta, anchor)
            for stream, (delta, anchor) in zip(streams, pairs)
        )
        return KVCache(
            k=k,
            v=v,
            model_name=encoded.model_name,
            full_layers=encoded.full_layers,
            full_channels=encoded.full_channels,
        )

    def decode_many(self, encoded_chunks: list[EncodedKV]) -> KVCache:
        """Decode several chunks and concatenate them along the token dimension.

        Chunks sent at different encoding levels decode independently and are
        concatenated to reconstruct the full context's KV cache (§5.3).
        """
        if not encoded_chunks:
            raise ValueError("no encoded chunks to decode")
        return KVCache.concat([self.decode(chunk) for chunk in encoded_chunks])

    # ------------------------------------------------------------ inner pieces
    @staticmethod
    def _reconstruct(
        stream: EncodedTensorStream,
        encoded: EncodedKV,
        delta_symbols: np.ndarray,
        anchor_symbols: np.ndarray | None,
    ) -> np.ndarray:
        delta_values = delta_symbols.astype(np.float32) * stream.delta_scale[:, None, :]

        if anchor_symbols is None:
            return delta_values

        anchor_scale = stream.anchor_scale
        assert anchor_scale is not None
        anchor_values = anchor_symbols.astype(np.float32) * anchor_scale[:, None, :]

        num_tokens = encoded.num_tokens
        positions = anchor_positions(num_tokens, encoded.group_size)
        mask = np.ones(num_tokens, dtype=bool)
        mask[positions] = False

        layers, _, channels = delta_values.shape
        full_deltas = np.zeros((layers, num_tokens, channels), dtype=np.float32)
        full_deltas[:, mask, :] = delta_values

        decomposition = DeltaDecomposition(
            anchors=anchor_values,
            deltas=full_deltas,
            group_size=encoded.group_size,
            num_tokens=num_tokens,
        )
        return reconstruct_from_deltas(decomposition)
