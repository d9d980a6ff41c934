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
    ("default", 40, 1): "1247f462bc58ad8f2940405736532a06c2b6e673227b922ae2f0174810c72592",
    ("default", 40, 7): "807d37bc3bbb22f0f682411d9fd6e62db874a6d1c1545246c2b62f406e60b5b7",
    ("default", 40, 300): "1e99a30ebc37b06b3e9d69398f7f3da442365d7369b309368589da5c1555e9d6",
    ("default", 40, 1600): "ab2ea0a2ba30d293ec194468ada2ea78816250215307e86783af872140099cf0",
    ("default", 256, 1): "1247f462bc58ad8f2940405736532a06c2b6e673227b922ae2f0174810c72592",
    ("default", 256, 7): "807d37bc3bbb22f0f682411d9fd6e62db874a6d1c1545246c2b62f406e60b5b7",
    ("default", 256, 300): "3e2d4f4077bcd3d51cacd985e1f404a59d045fb90a65305a820d46ed9754b4a3",
    ("default", 256, 1600): "07b5ebd43fc3ad022f9443b09011468343d77f2af3a848e2aaaf4ee59d2172c8",
    ("default", 1500, 1): "1247f462bc58ad8f2940405736532a06c2b6e673227b922ae2f0174810c72592",
    ("default", 1500, 7): "807d37bc3bbb22f0f682411d9fd6e62db874a6d1c1545246c2b62f406e60b5b7",
    ("default", 1500, 300): "c2c4b69799624bbbb5ac42198a896f6f9132cd3dc1ec185fcce33cdb6dd804da",
    ("default", 1500, 1600): "ac9eacd4ba58405d5cc18586dcc74c8a83e119d8fd02b2e36e9af7a206ca50a3",
    ("no-delta", 40, 1): "f438add6c75902c10c16d27d9e893a6fc931916e31c71fd4fe0cbb97f471a7df",
    ("no-delta", 40, 7): "f5b52e9b0bf5449298cb2c33488c37c523e618ccbcfae64ce4b12ad817204c4f",
    ("no-delta", 40, 300): "b8ff9fb397b65e427cc8f50666ce3c5cbb7f0e27977c1ab6aead0f02196fec92",
    ("no-delta", 40, 1600): "cf1c1f62eeb8f3cdd67a3f59fdd72d6b4a7a6b8191fc208074b13588ecdadd09",
    ("no-delta", 256, 1): "f438add6c75902c10c16d27d9e893a6fc931916e31c71fd4fe0cbb97f471a7df",
    ("no-delta", 256, 7): "f5b52e9b0bf5449298cb2c33488c37c523e618ccbcfae64ce4b12ad817204c4f",
    ("no-delta", 256, 300): "cf8f0c8004607ed15833ee7e4fc3dc15161c6c98e4f65ec2455a2507302257c4",
    ("no-delta", 256, 1600): "b1d5a2b9b796ed93543d1b3bd37030812ee042bd0b856aaf0fbdc699112868e8",
    ("no-delta", 1500, 1): "f438add6c75902c10c16d27d9e893a6fc931916e31c71fd4fe0cbb97f471a7df",
    ("no-delta", 1500, 7): "f5b52e9b0bf5449298cb2c33488c37c523e618ccbcfae64ce4b12ad817204c4f",
    ("no-delta", 1500, 300): "04e96e2b672c42deb2b333f2166527c2d8130a44ddbfe41a76173161040f03e2",
    ("no-delta", 1500, 1600): "970adbcbfd176daa7b8602f8f51dfe9136cb48dceb9fb461bfc144c3b881117d",
    ("no-ac", 40, 1): "b30a938e6ccf0bc8b36de5f6157e3c931c30c5ed5b4a8a2fbcd56da6abfd9bed",
    ("no-ac", 40, 7): "1b8eeef8b318311a883f295006a9a97de00cc8cbd84a725480bbc0818944f0fd",
    ("no-ac", 40, 300): "33ffd4c8421085dac3157e705f93206a32d2f7708b20a0222d144f14b987bdde",
    ("no-ac", 40, 1600): "fd7d1e06e7178c97ff77694a536245dda13e4ce6f0d6094be18ce81f79150ed5",
    ("no-ac", 256, 1): "b30a938e6ccf0bc8b36de5f6157e3c931c30c5ed5b4a8a2fbcd56da6abfd9bed",
    ("no-ac", 256, 7): "1b8eeef8b318311a883f295006a9a97de00cc8cbd84a725480bbc0818944f0fd",
    ("no-ac", 256, 300): "ca08f74c59a6c203676c6e885d8176689acd5612e0a6d9e64a5650ad783141fa",
    ("no-ac", 256, 1600): "8be11558c368e8645c685101f39dd26ff0d4eadb64a09218a3848a4c0df69a40",
    ("no-ac", 1500, 1): "b30a938e6ccf0bc8b36de5f6157e3c931c30c5ed5b4a8a2fbcd56da6abfd9bed",
    ("no-ac", 1500, 7): "1b8eeef8b318311a883f295006a9a97de00cc8cbd84a725480bbc0818944f0fd",
    ("no-ac", 1500, 300): "30a41ed860f0e232ff019f2abd991084305646ea7c5c2d6e9166b0bf6ca7bbe0",
    ("no-ac", 1500, 1600): "8bb7f69a24c416552c6c98c682d0bd3b906835b9d14913cbd189ffce0f55c777",
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


@pytest.mark.parametrize("variant, chunk_tokens, num_tokens", sorted(DIGESTS))
def test_decoded_chunks_match_committed_digest(llm, variant, chunk_tokens, num_tokens):
    assert _digest(llm, variant, chunk_tokens, num_tokens) == DIGESTS[
        variant, chunk_tokens, num_tokens
    ]
