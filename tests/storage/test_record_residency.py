"""What a stored record keeps resident.

A record holds no tensor.  Per chunk it keeps sizes and scales (bitstreams
too under exact coding) and, per level, the per-layer squared error of its
decode; per context, the per-layer variance of the lossless cache.  Reads are
scored from those statistics, so an estimated encoding keeps no ``source``
and cannot be decoded.  Building one holds the context's float32 K and V and
one bounded working set, traced under ``tracemalloc``.
"""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro import ServeRequest, ServingSpec, build_backend
from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder
from repro.core.kv_cache import layer_blocks
from repro.llm import SyntheticLLM
from repro.serving.engine import profile_codec
from repro.storage.kv_store import StoredContext

#: Objects the walk does not enter: code and modules lead to every global.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, str, bytes)


def _reachable_arrays(root) -> dict[int, np.ndarray]:
    """Every ndarray reachable from ``root``, views' bases included, by id."""
    arrays: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj, np.ndarray):
                arrays[id(obj)] = obj
                obj = obj.base
            continue
        stack.extend(gc.get_referents(obj))
    return arrays


@pytest.mark.parametrize("topology", ["single", "cluster"])
def test_no_record_or_backend_holds_a_token_sized_array(fitted_codec, topology):
    backend = build_backend(ServingSpec(chunk_tokens=256, topology=topology), codec=fitted_codec())
    before = _reachable_arrays(backend)
    ingested = (("resident-a", 640), ("resident-b", 300))
    for context_id, num_tokens in ingested:
        backend.ingest(context_id, num_tokens)
    (response,) = backend.run([ServeRequest("resident-a", "question?", num_tokens=640)])
    assert response.used_kv_cache

    model = backend.model
    # Scales are (layers, channels); statistics and bin sizes are per layer.
    per_layer = model.sim_layers * model.sim_channels
    # The codec scores its probability tables on first use: token-independent.
    before.update(_reachable_arrays(backend.encoder.codec))
    new = [a for key, a in _reachable_arrays(backend).items() if key not in before]
    assert new, "the records must be reachable from the backend"
    assert max(a.size for a in new) <= per_layer, sorted({a.shape for a in new})

    records = [
        store.peek_context(context_id)
        for store in backend.stores().values()
        for context_id, _ in ingested
        if context_id in store
    ]
    assert len(records) >= 2
    for record in records:
        assert record.variance.shape == (model.sim_layers,)
        for chunk in record.chunks:
            assert set(chunk.squared_error) == set(chunk.encodings)
            for encoded in chunk.encodings.values():
                assert not encoded.k_stream.delta_payload.exact
                assert encoded.source is None


def test_a_stored_estimated_encoding_refuses_to_decode(fitted_codec):
    backend = build_backend(ServingSpec(chunk_tokens=256), codec=fitted_codec())
    backend.ingest("no-source", 300)
    (store,) = backend.stores().values()
    encoded = store.peek_context("no-source").chunks[0].encodings["low"]
    with pytest.raises(ValueError, match="no source: it stores only sizes"):
        CacheGenDecoder(backend.encoder).decode(encoded)


def test_ingest_holds_its_kv_and_one_bounded_working_set():
    """``StoredContext.encode`` of a two-chunk mistral-7b context peaks at one
    1,500-token chunk's encode at every level above its K and V (≈21 MiB, where
    keeping full-size error references and counting every symbol at once took
    48 MiB), and the variance's float64 temporary is one block of layers, not a
    copy of K (23 MiB here)."""
    llm = SyntheticLLM("mistral-7b")
    encoder = CacheGenEncoder(CacheGenConfig(chunk_tokens=1500), codec=profile_codec("mistral-7b"))
    StoredContext.encode("warm-up", llm.calculate_kv("warm-up", 16), encoder)  # the log tables
    kv = llm.calculate_kv("ingest-peak", 3000)
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        StoredContext.encode("ingest-peak", kv, encoder)
        encode_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        kv.variance_per_layer()
        variance_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert encode_peak <= 24 * 2**20
    block = layer_blocks(kv.num_layers, kv.num_tokens * kv.num_channels)[0]
    assert variance_peak <= kv.k[block].size * 8 + 128 * 2**10  # and numpy's cast buffers
