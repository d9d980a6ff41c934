"""The serving path against the method harness: one timing model.

Every served request is played on the event engine, and so is every load the
method harness evaluates (``baselines/base.py``, Figures 7–11 and 14–19):
:class:`~repro.baselines.CacheGenMethod` describes its load as the same
:class:`~repro.serving.concurrent.processes.ChunkedKVLoad` the serving path
builds.  This oracle holds the two together exactly: for a lone request they
pick the same per-chunk configurations, move the same bytes, score the same
quality and report the same TTFT, component by component.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest

import repro
from repro.baselines import CacheGenMethod, LoadRequest
from repro.datasets.base import ContextRecord
from repro.network import ConstantTrace, NetworkLink, RandomTrace, gbps
from repro.serving.api import ServeRequest, ServingSpec, build_backend

CHUNK_TOKENS = 512
#: 32 constant-link shapes.
CONSTANT_SHAPES = list(
    itertools.product((None, 0.3, 0.6, 1.2), (0.5, 3.0), (512, 1_200, 2_000, 3_000))
)
#: 30 shapes under Figure 13's conditions: bandwidth redrawn from 0.1–10 Gbps
#: every 0.25 s, SLO 0.5/1.0 s, 2–6 k tokens.
RANDOM_SHAPES = list(itertools.product((0.5, 1.0), range(5), (2_000, 4_000, 6_000)))
LENGTHS = sorted({shape[2] for shape in CONSTANT_SHAPES + RANDOM_SHAPES})


@pytest.fixture(scope="module")
def backend(fitted_codec):
    built = build_backend(
        ServingSpec(model="mistral-7b", chunk_tokens=CHUNK_TOKENS), codec=fitted_codec()
    )
    for num_tokens in LENGTHS:
        built.ingest(f"doc-{num_tokens}", num_tokens)
    return built


@pytest.fixture(scope="module")
def method(backend):
    return CacheGenMethod(backend.encoder)


def _assert_agrees_with_the_harness(backend, method, link: NetworkLink, slo_s, num_tokens) -> None:
    backend.replace_link(link)
    request = ServeRequest(f"doc-{num_tokens}", "What changed?", slo_s=slo_s)
    (served,) = backend.run([request])

    evaluated = method.evaluate(
        LoadRequest(
            record=ContextRecord(
                context_id=request.context_id,
                num_tokens=num_tokens,
                prompt_tokens=max(backend.llm.tokenizer.count_tokens(request.question), 1),
                task=request.task,
                question=request.question,
            ),
            llm=backend.llm,
            reference_kv=backend.llm.calculate_kv(request.context_id, num_tokens),
            link=link,
            compute_model=backend.compute_model,
            quality_model=backend.llm.quality_model,
            slo_s=slo_s,
        )
    )

    assert served.used_kv_cache
    assert list(served.chunk_configs) == evaluated.extras["configs"]
    assert served.transmitted_bytes == evaluated.transmitted_bytes
    assert served.quality == evaluated.quality
    assert served.queueing_s == pytest.approx(0.0, abs=1e-12)  # alone: nothing to wait for
    assert served.ttft_s == pytest.approx(evaluated.ttft_s, abs=1e-12)
    assert served.loading_s == pytest.approx(evaluated.loading_delay_s, abs=1e-12)
    for component in ("network_s", "decode_s", "compute_s"):
        assert getattr(served.ttft, component) == pytest.approx(
            getattr(evaluated.breakdown, component), abs=1e-12
        ), component


@pytest.mark.parametrize("slo_s, bandwidth_gbps, num_tokens", CONSTANT_SHAPES)
def test_lone_request_on_a_constant_link(backend, method, slo_s, bandwidth_gbps, num_tokens):
    link = NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))
    _assert_agrees_with_the_harness(backend, method, link, slo_s, num_tokens)


@pytest.mark.parametrize("slo_s, trace_seed, num_tokens", RANDOM_SHAPES)
def test_lone_request_on_a_random_trace(backend, method, slo_s, trace_seed, num_tokens):
    trace = RandomTrace(min_bps=gbps(0.1), max_bps=gbps(10.0), interval_s=0.25, seed=trace_seed)
    _assert_agrees_with_the_harness(backend, method, NetworkLink(trace), slo_s, num_tokens)


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
    """No second executor grows back beside the event engine, anywhere in the package."""
    src = Path(repro.__file__).parent
    assert _calls(src, "transfer") == {("serving/concurrent/resources.py", "LinkChannel")}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "KVStreamer" not in [alias.name for alias in node.names], path
                assert not (node.module or "").endswith("streamer"), path
            assert getattr(node, "id", None) != "KVStreamer", path
