"""What a stored record keeps resident.

A record holds each chunk's lossless tensor once.  Its estimated encodings
store sizes and scales, not symbols: each points back at that tensor as its
``source`` and decodes by quantizing it again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ServeRequest, ServingSpec, build_backend
from repro.core import CacheGenDecoder, CacheGenEncoder
from repro.core.encoder import EncodedTensorStream


def _payloads(stream: EncodedTensorStream):
    return [p for p in (stream.delta_payload, stream.anchor_payload) if p is not None]


@pytest.mark.parametrize("topology", ["single", "cluster"])
def test_records_hold_the_chunk_tensor_once(fitted_codec, topology):
    backend = build_backend(ServingSpec(chunk_tokens=256, topology=topology), codec=fitted_codec())
    for context_id, num_tokens in (("resident-a", 640), ("resident-b", 300)):
        backend.ingest(context_id, num_tokens)
    records = 0
    for store in backend.engine.stores().values():
        for context_id in store.context_ids():
            records += 1
            for chunk in store.peek_context(context_id).chunks:
                kv = chunk.chunk.kv
                for encoded in chunk.encodings.values():
                    for stream in (encoded.k_stream, encoded.v_stream):
                        for payload in _payloads(stream):
                            assert not payload.exact
                            assert not any(
                                isinstance(value, np.ndarray) for value in vars(payload).values()
                            )
                    assert np.shares_memory(encoded.source.k, kv.k)
                    assert np.shares_memory(encoded.source.v, kv.v)
    assert records >= 2
    # Reads decode from the source the records point at.
    backend.submit(ServeRequest("resident-a", "question?", num_tokens=640))
    (response,) = backend.run()
    assert response.ttft_s > 0


def test_estimated_encoding_without_source_refuses_to_decode(fitted_codec, kv):
    encoder = CacheGenEncoder(codec=fitted_codec())
    encoded = encoder.encode(kv.slice_tokens(0, 40), "low")
    encoded.source = None
    with pytest.raises(ValueError, match="no source: it stores only sizes"):
        CacheGenDecoder(encoder).decode(encoded)
