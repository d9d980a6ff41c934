"""Quickstart: encode, stream and decode a KV cache with CacheGen.

Run with ``python examples/quickstart.py``.

The example walks the core pipeline end to end:

1. prefill a long context into a KV cache (synthetic LLM substrate),
2. fit the CacheGen encoder's probability models offline,
3. encode the cache into compact bitstreams at several quality levels,
4. ship it over a simulated 3 Gbps link and decode it,
5. compare size, delay and generation quality against the 8-bit quantization
   and text-recompute baselines.
"""

from __future__ import annotations

import os

from repro import CacheGenDecoder, CacheGenEncoder, ConstantTrace, NetworkLink, SyntheticLLM, gbps
from repro.baselines.uniform_quant import quantization_distortion
from repro.llm import ComputeModel, MISTRAL_7B

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    llm = SyntheticLLM(MISTRAL_7B)
    compute = ComputeModel(MISTRAL_7B)
    link = NetworkLink(ConstantTrace(gbps(3.0)))

    # 1. Prefill a reusable 9.4K-token context once.
    context_tokens = 2_400 if SMOKE else 9_400
    kv = llm.calculate_kv("financial-report-2023", context_tokens)
    print(f"KV cache: {kv.num_tokens} tokens, {kv.full_nbytes / 1e9:.2f} GB in fp16")

    # 2. Profile the encoder offline (once per model).
    encoder = CacheGenEncoder()
    encoder.fit([llm.calculate_kv(f"profile-{i}", 2_000) for i in range(2)])
    decoder = CacheGenDecoder(encoder)

    # 3. Encode at every level and report sizes.
    print("\nEncoding levels:")
    for level in encoder.config.levels:
        encoded = encoder.encode(kv, level)
        print(
            f"  {level.name:>7}: {encoded.compressed_bytes / 1e6:7.1f} MB "
            f"({encoded.bits_per_element:.2f} bits/element)"
        )

    # 4. Ship the default level and decode it.
    encoded = encoder.encode(kv)
    transfer = link.transfer(encoded.compressed_bytes)
    decode_delay = compute.decode_delay(context_tokens)
    decoded = decoder.decode(encoded)
    result = llm.generate(
        kv.num_tokens, kv.normalized_distortion_per_layer(decoded), task="qa_accuracy"
    )
    print(
        f"\nCacheGen: {encoded.compressed_bytes / 1e6:.1f} MB, "
        f"transfer {transfer.duration:.2f}s + decode {decode_delay:.2f}s, "
        f"relative quality {result.quality.relative_quality:.3f}"
    )

    # 5. Baselines.
    quant_bytes = kv.full_num_elements  # 8 bits/element
    quant_transfer = link.transfer(quant_bytes)
    quant_quality = llm.generate(kv.num_tokens, quantization_distortion(kv, 8)).quality
    print(
        f"8-bit quant: {quant_bytes / 1e6:.1f} MB, transfer {quant_transfer.duration:.2f}s, "
        f"relative quality {quant_quality.relative_quality:.3f}"
    )
    text_delay = compute.prefill_delay(context_tokens)
    print(f"Text recompute: prefill {text_delay:.2f}s (lossless)")

    speedup = (quant_transfer.duration) / (transfer.duration + decode_delay)
    print(f"\nCacheGen is {speedup:.1f}x faster to load than the 8-bit quantized cache.")


if __name__ == "__main__":
    main()
