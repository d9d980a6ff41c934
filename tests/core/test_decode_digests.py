"""Bit-identity oracle for ``decode(encode(kv, level))`` on the estimate path.

An estimated encoding stores its size and decodes by quantizing its source
chunk again, so every decoded tensor must be the one the codec produced when
the payloads still carried their symbols.  The digests below were taken from
that implementation; any change to quantization, delta decomposition,
reconstruction or the size estimate moves one of them.

The size hashed is the one the digests were taken with: under arithmetic
coding, numpy's pairwise sum of each payload's dense products
(``pairwise_dense_bits`` in ``test_ingest_fast_path.py``).  The live
``payload_bits`` sums those products in a fixed order instead
(``dense_cross_entropy_bits`` there); each is checked to equal that order's
dense oracle and to lie within 1e-12 of the pairwise size it stands in for.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from test_ingest_fast_path import dense_products, fold_sum

from conftest import encode_all_levels
from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder
from repro.serving.api import profile_codec

#: Configuration variants by name: the paper's codec and two ablations.
VARIANTS = {
    "default": {},
    "no-delta": {"use_delta": False},
    "no-ac": {"use_arithmetic_coding": False},
}

#: SHA-256 over every chunk and level of ``mistral-7b``'s
#: ``calculate_kv("digest-context", n)``, keyed by ``(variant, chunk_tokens, n)``;
#: see :func:`_digest` for what each level contributes.
DIGESTS = {
    ("default", 40, 1): "f0e5bd9d1711c0c007f96afa66d9108615c021369b71dcd042f88e9751cef0b5",
    ("default", 40, 7): "464e98c39e3af23e646edc53d2fb76dbfb233a4c1ad09ce898b6835f0cd9afb9",
    ("default", 40, 300): "283f7759fb52baeb99d3b6d3226f46363ca07872aa67c7523642ec03116cd2ec",
    ("default", 40, 1600): "3f7485e90041ac5bf4c1a298dc22317708c143a27860d179dbea0c4ffe2f872b",
    ("default", 256, 1): "f0e5bd9d1711c0c007f96afa66d9108615c021369b71dcd042f88e9751cef0b5",
    ("default", 256, 7): "464e98c39e3af23e646edc53d2fb76dbfb233a4c1ad09ce898b6835f0cd9afb9",
    ("default", 256, 300): "1ca40b8d95193b3d1b5cd4615f29cde23b3ceb4ee1a55902a27af0dc99ef87a0",
    ("default", 256, 1600): "dd4595cd4e3eedcdc68928d70beaaba4d779f12e2821face8c848290e3a5e498",
    ("default", 1500, 1): "f0e5bd9d1711c0c007f96afa66d9108615c021369b71dcd042f88e9751cef0b5",
    ("default", 1500, 7): "464e98c39e3af23e646edc53d2fb76dbfb233a4c1ad09ce898b6835f0cd9afb9",
    ("default", 1500, 300): "42eb02c1f5589be733e74d13ee77ea23b6f9b7339cc790d520296e45323b953c",
    ("default", 1500, 1600): "4cb7d173f6b2c6a9fbf2311c86fef85450863baec0137baabe6fff5350e60448",
    ("no-ac", 40, 1): "a6b28aceef1442f94ce6022ef3f5b1bf62332b890cba84a8e41e28314440de53",
    ("no-ac", 40, 7): "e86b23ae3da385ede8d0e66a917fe7db67d2e5acfb1a0e73515e87bbf1f03211",
    ("no-ac", 40, 300): "23abbd8c8a5b035739953afeebc1714253b9b1fc44ad6b9559bc3a0cbe5f63db",
    ("no-ac", 40, 1600): "11b125b3798b088b1f6b80ee51cb38df3b2a55189fcd29a4a90f74ef9311cce2",
    ("no-ac", 256, 1): "a6b28aceef1442f94ce6022ef3f5b1bf62332b890cba84a8e41e28314440de53",
    ("no-ac", 256, 7): "e86b23ae3da385ede8d0e66a917fe7db67d2e5acfb1a0e73515e87bbf1f03211",
    ("no-ac", 256, 300): "ec73b9395f132adba3f9a358d85bd83db725bb025927c3c544cce840b00a2dfd",
    ("no-ac", 256, 1600): "2755ff070210d2628aec0dfc5a98cffcb64264a035595ec6f5591c2d927d78bd",
    ("no-ac", 1500, 1): "a6b28aceef1442f94ce6022ef3f5b1bf62332b890cba84a8e41e28314440de53",
    ("no-ac", 1500, 7): "e86b23ae3da385ede8d0e66a917fe7db67d2e5acfb1a0e73515e87bbf1f03211",
    ("no-ac", 1500, 300): "61a8d04617438b407d77d01f4aeaeefedb2e46961525c7c7143ebdcc60d39f3b",
    ("no-ac", 1500, 1600): "03c31d4c8953e1979c8ba2d9bc40de4333f421e2cbb004acda52f968cfe6bb7e",
    ("no-delta", 40, 1): "a95c90e001217842ce8bdc32bde3c3f2db695ffd3a1da6ae7aee9d881a0ee8d3",
    ("no-delta", 40, 7): "3fe54c2b41c55aa2d8c36d02c65a0f80a3a1252ec3cd79a89b0a3398bec07db6",
    ("no-delta", 40, 300): "e90ffdf9488a54b71ce5791a1634ad16584dd12b1e238843e9bc556eb49580a5",
    ("no-delta", 40, 1600): "b538c9b846cd493e333b7581b37dcd0d104d2a56afe038c038abcf9cb7cf0cb9",
    ("no-delta", 256, 1): "a95c90e001217842ce8bdc32bde3c3f2db695ffd3a1da6ae7aee9d881a0ee8d3",
    ("no-delta", 256, 7): "3fe54c2b41c55aa2d8c36d02c65a0f80a3a1252ec3cd79a89b0a3398bec07db6",
    ("no-delta", 256, 300): "acfa5ca3629eb02fdc92b90ef7072095aed55097ccce249013d3969acb377f1a",
    ("no-delta", 256, 1600): "5adc29b77bd4a6e11a068ffa4aaa5b0b86f97d97599d57da42cba9045db0a519",
    ("no-delta", 1500, 1): "a95c90e001217842ce8bdc32bde3c3f2db695ffd3a1da6ae7aee9d881a0ee8d3",
    ("no-delta", 1500, 7): "3fe54c2b41c55aa2d8c36d02c65a0f80a3a1252ec3cd79a89b0a3398bec07db6",
    ("no-delta", 1500, 300): "c2836aae49791d9b7adedfe4afda52e783d766fac802522cfd424040eb889ca4",
    ("no-delta", 1500, 1600): "b6ba6c0ab536abecfacc13991235acd4e68288e97bddc1f0e29c75b88aa67f78",
}

#: SHA-256 of ``k.tobytes() + v.tobytes()`` of the tensors those digests code,
#: by ``n``: a failure here says the input moved, not the codec.
INPUT_DIGESTS = {
    1: "9678f6981360ac3a913eb169935f2a7c40e0a656e94ee351b97a7932d3e9e0a7",
    7: "8a28f1ed4877ed41f3542910edecbfa5fd765151b9aa5ce1fb3b50ee08293da6",
    300: "85c84ae2d564e9230d3aa721123a79db308452a6be1ca611519bdb3cb684867e",
    1600: "a3e5a472f2fa645f3d671c556e318a752d5675e36a52488cbd39fce06af19db5",
}


@dataclass(frozen=True)
class _DenseLogs:
    """A model's grouping and dense ``log2`` table, derived once per digest."""

    grouping: str
    table: np.ndarray

    def log2_probabilities(self) -> np.ndarray:
        return self.table


def _oracle_bits(encoder, chunk, level, dense: dict) -> tuple[float, float]:
    """``(fold, pairwise)``: ``payload_bits`` of ``chunk`` at ``level`` from the
    dense products, summed stream by stream as ``EncodedKV.payload_bits`` does.

    ``dense`` caches each model's :class:`_DenseLogs` by ``id``.
    """
    models = encoder.model_for_level(level)
    fold, pairwise = [], []
    for delta, anchor in encoder.quantize(chunk, level):
        tables = []
        for model, quantized in ((models.delta_model, delta), (models.anchor_model, anchor)):
            if quantized is None:
                continue
            if id(model) not in dense:
                dense[id(model)] = _DenseLogs(model.grouping, np.log2(model.probabilities()))
            tables.append(dense_products(dense[id(model)], quantized.symbols))
        fold.append(sum(-fold_sum(table) for table in tables))
        # pairwise_dense_bits, from the one table both sums share
        pairwise.append(sum(float(-table.sum()) for table in tables))
    return sum(fold), sum(pairwise)


def _digest(llm, variant: str, chunk_tokens: int, num_tokens: int) -> str:
    """Hash each level's decoded K and V bytes and its ``payload_bits``, chunk by chunk.

    Chunks are encoded as a store prepares them (``encode_all_levels`` in ``conftest``,
    one preparation for all levels) and decoded one level at a time.
    """
    config = CacheGenConfig(chunk_tokens=chunk_tokens, **VARIANTS[variant])
    encoder = CacheGenEncoder(config, codec=profile_codec("mistral-7b", config))
    decoder = CacheGenDecoder(encoder)
    digest, dense = hashlib.sha256(), {}
    kv = llm.calculate_kv("digest-context", num_tokens)
    for chunk in kv.split_tokens(chunk_tokens):
        for name, encoded in encode_all_levels(encoder, chunk).items():
            bits = encoded.payload_bits
            if config.use_arithmetic_coding:
                fold, bits = _oracle_bits(encoder, chunk, name, dense)
                assert encoded.payload_bits == fold
                assert abs(fold - bits) <= 1e-12 * abs(bits)
            decoded = decoder.decode(encoded)
            digest.update(name.encode())
            digest.update(struct.pack("<d", bits))
            digest.update(decoded.k.tobytes() + decoded.v.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("num_tokens", sorted(INPUT_DIGESTS))
def test_input_tensors_match_committed_digest(llm, num_tokens):
    kv = llm.calculate_kv("digest-context", num_tokens)
    digest = hashlib.sha256(kv.k.tobytes() + kv.v.tobytes()).hexdigest()
    assert digest == INPUT_DIGESTS[num_tokens]


@pytest.mark.parametrize("variant, chunk_tokens, num_tokens", sorted(DIGESTS))
def test_decoded_chunks_match_committed_digest(llm, variant, chunk_tokens, num_tokens):
    assert _digest(llm, variant, chunk_tokens, num_tokens) == DIGESTS[
        variant, chunk_tokens, num_tokens
    ]
