"""Multi-turn chat: the conversation history's KV cache grows and is reused.

In chat applications the accumulated history is prepended to every new user
turn (§2.2).  This example simulates a session in which the history grows turn
by turn; after every turn the serving backend re-ingests the updated history,
and each new user message reuses the cached KV instead of re-prefilling
thousands of tokens.  It also reports the Appendix-E style economics of
keeping the cache.

The deployment is declared once as a :class:`repro.ServingSpec` and served
through the unified API (``ingest`` + ``run`` on the backend).

Run with ``PYTHONPATH=src python examples/chat_session_cache.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run).
"""

from __future__ import annotations

import os

from repro import ServeRequest, ServingSpec, build_backend
from repro.llm import LLAMA_13B, get_model_config
from repro.storage import CostModel

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
TURNS = [
    ("What is the role of art in society?", 1_800),
    ("How does that relate to public funding of museums?", 3_600),
    ("Summarise our discussion so far.", 5_400),
    ("What was the first topic we discussed?", 7_200),
]
if SMOKE:
    TURNS = [(question, tokens // 4) for question, tokens in TURNS[:3]]


def main() -> None:
    spec = ServingSpec(model="mistral-7b", topology="single")
    backend = build_backend(spec)
    session_id = "chat-session-42"

    print("Simulating a growing chat session (history re-ingested after each turn):\n")
    for turn, (question, history_tokens) in enumerate(TURNS, start=1):
        backend.ingest(f"{session_id}-turn{turn}", history_tokens)
        (response,) = backend.run([ServeRequest(f"{session_id}-turn{turn}", question)])
        path = "cached KV" if response.used_kv_cache else "text prefill"
        print(
            f"Turn {turn}: history {history_tokens:>5} tokens | {path:>12} | "
            f"TTFT {response.ttft_s:5.2f}s | quality {response.quality.relative_quality:.3f}"
        )

    # Appendix E economics: is it worth keeping the final history cached?
    cost = CostModel().analyse(
        model=get_model_config("mistral-7b"),
        num_tokens=TURNS[-1][1],
        compressed_bits_per_element=2.4,
        num_stored_versions=4,
    )
    print(
        f"\nStoring the final history costs ${cost.storage_usd_per_month:.3f}/month; "
        f"recomputing it costs ${cost.recompute_usd_per_request:.5f}/request.\n"
        f"Caching pays off above {cost.breakeven_requests_per_month:.0f} requests per month."
    )

    # The same analysis for a larger model, as in the paper's appendix.
    larger = CostModel().analyse(LLAMA_13B, 8_500, 2.4, num_stored_versions=4)
    print(
        f"For Llama-13B at 8.5K tokens the breakeven is "
        f"{larger.breakeven_requests_per_month:.0f} requests/month."
    )


if __name__ == "__main__":
    main()
