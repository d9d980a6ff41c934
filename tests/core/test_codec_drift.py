"""Exact coding of symbols the profile never saw, through the tables the models keep.

A profile is fitted once per LLM and codes every later context (§5.2), so a
chunk's symbols can drift past the band its models were fitted on.  Each
model keeps the band table of its first exact call and codes every later
one with it, so a drifted chunk must code through those kept tables exactly
as through fresh ones: every lane byte-equal to the one-symbol-at-a-time
coder of ``scalar_coder.py`` on the model's dense table, every decode exact,
and a second encode the same bytes.

The profile is fitted on Gaussian caches, whose delta symbols span a narrow
band at every level; the chunk is constant but for a few large outliers of
either sign, so its delta symbols reach far below and above every band
while most of them are 0.  Decoding one of those symbols takes the
closed form past the band's edge (``_past_the_band``).
"""

from __future__ import annotations

import numpy as np
import pytest
from scalar_coder import ScalarEncoder
from test_lane_coder import lane_streams

from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder, KVCache, arithmetic_coder
from repro.core.entropy_codec import lane_count
from repro.core.probability_model import SYMBOL_OFFSET

LAYERS, CHANNELS, TOKENS = 4, 32, 64


@pytest.fixture(scope="module")
def drift():
    """``(encoder, decoder, chunk)``: a profile of narrow caches and a chunk far outside it."""
    rng = np.random.default_rng(45)
    shape = (LAYERS, TOKENS, CHANNELS)
    narrow = KVCache(k=rng.standard_normal(shape), v=rng.standard_normal(shape))
    config = CacheGenConfig(chunk_tokens=TOKENS, exact_entropy_coding=True)
    encoder = CacheGenEncoder(config).fit([narrow])
    k = np.repeat(rng.standard_normal((LAYERS, 1, CHANNELS)), TOKENS, axis=1)
    outliers = rng.random(shape) < 0.003
    k[outliers] += rng.choice([-1e3, 1e3], size=int(outliers.sum()))
    chunk = KVCache(k=k, v=-k)
    return encoder, CacheGenDecoder(encoder), chunk


def test_drifted_symbols_code_through_the_kept_tables(drift, monkeypatch):
    encoder, decoder, chunk = drift
    estimated = CacheGenEncoder(
        encoder.config.replace(exact_entropy_coding=False), codec=encoder.codec
    )
    estimated_decoder = CacheGenDecoder(estimated)
    past = []
    resolve = arithmetic_coder._past_the_band
    monkeypatch.setattr(
        arithmetic_coder, "_past_the_band", lambda *args: past.append(1) or resolve(*args)
    )
    for level in encoder.config.levels:
        models = encoder.model_for_level(level)
        encoded = encoder.encode(chunk, level)
        streams = (encoded.k_stream, encoded.v_stream)
        for stream, pair in zip(streams, encoder.quantize(chunk, level)):
            for model, tensor, payload in zip(
                (models.delta_model, models.anchor_model),
                pair,
                (stream.delta_payload, stream.anchor_payload),
            ):
                symbols = tensor.symbols.ravel().astype(np.int64) + SYMBOL_OFFSET
                contexts = model.context_ids_for(tensor.symbols.shape).ravel()
                lanes, cum = lane_count(len(symbols)), model.cumulative_counts()
                for lane, data in enumerate(lane_streams(payload.data, lanes)):
                    assert data == ScalarEncoder(cum).encode(
                        symbols[lane::lanes], contexts[lane::lanes]
                    ), f"{level.name}: lane {lane} of {lanes}"
            # The delta symbols fall below and above the band the model was fitted on.
            delta, model = pair[0].symbols, models.delta_model
            assert delta.min() < model.lo and delta.max() >= model.lo + model.band_counts.shape[1]

        past.clear()
        decoded = decoder.decode(encoded)
        assert past, f"{level.name}: no symbol was decoded past its band"
        reference = estimated_decoder.decode(estimated.encode(chunk, level))
        assert np.array_equal(decoded.k, reference.k) and np.array_equal(decoded.v, reference.v)
        # The second encode codes on the tables the first one derived.
        assert models.delta_model._band_table is not None
        again = encoder.encode(chunk, level)
        for first, second in zip(streams, (again.k_stream, again.v_stream)):
            assert first.delta_payload.data == second.delta_payload.data
            assert first.anchor_payload.data == second.anchor_payload.data
