"""RAG-style document assistant: reuse one document's KV cache across queries.

This mirrors the paper's motivating scenario (§2.2): a long financial report
is ingested once, its encoded KV cache lives on a storage server, and several
different questions about the same document arrive over time.  Every query
after the first skips the prefill and only pays the (compressed) KV transfer.

The deployment is declared once as a :class:`repro.ServingSpec` and served
through the unified API.

Run with ``PYTHONPATH=src python examples/rag_document_assistant.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run).
"""

from __future__ import annotations

import os

from repro import ServeRequest, ServingSpec, build_backend

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
DOC_TOKENS = 2_400 if SMOKE else 9_000
QUESTIONS = [
    "Write a short summary based on the company's earning report last quarter.",
    "What were the company's top sources of revenue in the last quarter?",
    "Did the report mention any regulatory risks?",
]


def main() -> None:
    spec = ServingSpec(model="mistral-7b", bandwidth_gbps=3.0)
    backend = build_backend(spec)

    # Ingest the document once: prefill, encode at every level, store.
    report = backend.ingest("acme-earnings-q4", num_tokens=DOC_TOKENS)
    print(
        f"Ingested {report.num_tokens}-token report into {report.num_chunks} chunks; "
        f"stored {report.total_stored_bytes / 1e6:.1f} MB across "
        f"{len(report.stored_bytes_per_level)} encoding levels "
        f"(modeled GPU encode time {report.encode_delay_s:.2f}s)."
    )

    # Answer several questions against the same cached context.
    for question in QUESTIONS:
        (response,) = backend.run([ServeRequest("acme-earnings-q4", question, task="qa_f1")])
        print(
            f"\nQ: {question}\n"
            f"   TTFT {response.ttft_s:.2f}s "
            f"(network {response.ttft.network_s:.2f}s, decode {response.ttft.decode_s:.2f}s, "
            f"compute {response.ttft.compute_s:.2f}s), "
            f"chunks sent as {sorted(set(response.chunk_configs))}, "
            f"relative quality {response.quality.relative_quality:.3f}"
        )

    # Contrast with a cold document that has to take the text path.
    (cold,) = backend.run(
        [ServeRequest("fresh-lawsuit-filing", QUESTIONS[2], num_tokens=DOC_TOKENS, task="qa_f1")]
    )
    print(
        f"\nCold context (no cached KV): TTFT {cold.ttft_s:.2f}s via the text path — "
        f"{cold.ttft_s / max(1e-9, response.ttft_s):.1f}x slower than the cached queries."
    )


if __name__ == "__main__":
    main()
