"""The event engine against the lone-request streamer.

Every served request is played on the event engine.  The method harness
(``baselines/cachegen.py``, Figures 7–11 and 14–19) times a request
that is alone on its link with :meth:`~repro.streaming.KVStreamer.stream`.
This oracle holds the two together: for a lone request they pick the same
per-chunk configurations, move the same bytes and score the same quality.
Total TTFT differs in two pinned ways:

1. **Pipelining.**  The streamer decodes chunk *i* under the transfer of
   chunk *i + 1*; the event engine walks a request stage by stage (transfer,
   then GPU), overlapping only *across* requests.  Pipelining only ever hides
   time, so the event TTFT is never smaller, and a single-chunk load —
   nothing to overlap — is equal.  Decode is modelled at ~5 µs per 512-token
   chunk (the paper's "negligible decoding overhead"), so the gap stays under
   a millisecond.
2. **Where a text chunk's prefill is booked.**  The streamer reports the
   re-prefill of a chunk sent as text in its receiver-side time (which
   ``baselines/cachegen.py`` books as ``decode_s``); the event engine runs it
   as a prefill task and books it under ``compute_s``.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest

import repro
from repro.network import ConstantTrace, NetworkLink, RandomTrace, gbps
from repro.serving.api import ServeRequest, ServingSpec, build_backend
from repro.streaming import TEXT_CONFIG, KVStreamer

CHUNK_TOKENS = 512
#: 32 constant-link shapes.
CONSTANT_SHAPES = list(
    itertools.product((None, 0.3, 0.6, 1.2), (0.5, 3.0), (512, 1_200, 2_000, 3_000))
)
#: 30 shapes under Figure 13's conditions: bandwidth redrawn from 0.1–10 Gbps
#: every 0.25 s, SLO 0.5/1.0 s, 2–6 k tokens.
RANDOM_SHAPES = list(itertools.product((0.5, 1.0), range(5), (2_000, 4_000, 6_000)))
LENGTHS = sorted({shape[2] for shape in CONSTANT_SHAPES + RANDOM_SHAPES})
#: Measured maxima: 1.07e-4 s over the constant shapes, 7.7e-5 s over the random ones.
MAX_PIPELINING_GAP_S = 1e-3


@pytest.fixture(scope="module")
def backend(fitted_codec):
    built = build_backend(
        ServingSpec(model="mistral-7b", chunk_tokens=CHUNK_TOKENS), codec=fitted_codec()
    )
    for num_tokens in LENGTHS:
        built.ingest(f"doc-{num_tokens}", num_tokens)
    return built


def _assert_agrees_with_streamer(backend, link: NetworkLink, slo_s, num_tokens) -> None:
    engine = backend.engine
    engine.replace_link(link)
    request = ServeRequest(f"doc-{num_tokens}", "What changed?", slo_s=slo_s)
    backend.submit(request)
    (served,) = backend.run()

    compute = engine.compute_model
    chunks = engine.resolve(request).stored.chunks
    streamed = KVStreamer(
        engine.decoder, compute, initial_throughput_bps=link.trace.bandwidth_at(0.0)
    ).stream(chunks, link, policy=engine.adaptation_policy(slo_s, None), slo_s=slo_s)
    reference_kv = engine.llm.calculate_kv(request.context_id, num_tokens)

    assert served.used_kv_cache
    assert list(served.chunk_configs) == streamed.configs
    assert served.transmitted_bytes == streamed.total_bytes
    assert served.quality == engine.llm.generate_with_kv(
        streamed.kv, reference_kv=reference_kv, task=request.task
    ).quality
    assert served.queueing_s == pytest.approx(0.0, abs=1e-12)  # alone: nothing to wait for

    prompt_s = compute.prefill_delay(engine.prompt_tokens(request.question))
    gap_s = served.ttft_s - (streamed.total_time_s + prompt_s)
    if len(chunks) == 1:
        assert gap_s == 0.0  # nothing to pipeline
    else:
        assert 0.0 <= gap_s < MAX_PIPELINING_GAP_S

    # Point 2: a text chunk's re-prefill is compute here, receiver-side time there.
    sent = list(zip(chunks, streamed.configs))
    assert served.ttft.decode_s == pytest.approx(
        sum(compute.decode_delay(c.num_tokens) for c, config in sent if config != TEXT_CONFIG),
        abs=1e-12,
    )
    assert served.ttft.compute_s == pytest.approx(
        prompt_s
        + sum(compute.prefill_delay(c.num_tokens) for c, config in sent if config == TEXT_CONFIG),
        abs=1e-12,
    )
    # Later transfer starts read a moving trace a few µs later; a constant link cannot tell.
    assert abs(served.ttft.network_s - streamed.network_time_s) < (
        1e-9 if isinstance(link.trace, ConstantTrace) else MAX_PIPELINING_GAP_S
    )


@pytest.mark.parametrize("slo_s, bandwidth_gbps, num_tokens", CONSTANT_SHAPES)
def test_lone_request_on_a_constant_link(backend, slo_s, bandwidth_gbps, num_tokens):
    link = NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))
    _assert_agrees_with_streamer(backend, link, slo_s, num_tokens)


@pytest.mark.parametrize("slo_s, trace_seed, num_tokens", RANDOM_SHAPES)
def test_lone_request_on_a_random_trace(backend, slo_s, trace_seed, num_tokens):
    trace = RandomTrace(min_bps=gbps(0.1), max_bps=gbps(10.0), interval_s=0.25, seed=trace_seed)
    _assert_agrees_with_streamer(backend, NetworkLink(trace), slo_s, num_tokens)


def _calls(root: Path, called: str) -> set[tuple[str, str | None]]:
    """``(file, enclosing class)`` of every call of a name or attribute ``called`` under ``root``."""
    sites = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {
            id(node): owner.name
            for owner in ast.walk(tree)
            if isinstance(owner, ast.ClassDef)
            for node in ast.walk(owner)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called == getattr(
                node.func, "attr", getattr(node.func, "id", None)
            ):
                sites.add((path.relative_to(root).as_posix(), owners.get(id(node))))
    return sites


def test_the_serving_path_has_one_timing_loop():
    """No second executor grows back beside the event engine."""
    src = Path(repro.__file__).parent
    assert _calls(src / "serving", "transfer") == {("concurrent/resources.py", "LinkChannel")}
    assert _calls(src, "KVStreamer") == {("baselines/cachegen.py", "CacheGenMethod")}
    for path in sorted((src / "serving").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("streamer"):
                assert [alias.name for alias in node.names] == ["materialise"], path
