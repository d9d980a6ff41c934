"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import NetworkLink, StepTrace, gbps
from repro.baselines import CacheGenMethod, TextContextBaseline, UniformQuantizationBaseline
from repro.datasets import LongChatDataset
from repro.experiments.common import Workbench, default_link
from repro.serving.engine import ContextLoadingEngine


def test_version_exposed():
    assert repro.__version__


def test_public_api_importable():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_serving_loads_no_scipy():
    """A cold process pays ~1 s and ~65 MiB for ``scipy.signal``; nothing may import it."""
    script = (
        "import sys, repro\n"
        "spec = repro.ServingSpec(chunk_tokens=256)\n"
        "request = repro.ServeRequest('doc', 'Q?', num_tokens=320)\n"
        "assert len(repro.serve(spec, [request]).responses) == 1\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_cluster_package_loads_no_serving_module():
    """The store layer sits below the serving stack: ``repro.cluster`` imports none of it.

    ``import repro`` loads every package, so the child registers a bare
    ``repro`` namespace and imports the sub-package alone.
    """
    src = Path(repro.__file__).resolve().parents[1]
    script = (
        "import sys, types\n"
        "pkg = types.ModuleType('repro')\n"
        f"pkg.__path__ = [{str(src / 'repro')!r}]\n"
        "sys.modules['repro'] = pkg\n"
        "import repro.cluster\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('repro.serving'))\n"
        "assert not loaded, loaded\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestPaperHeadlineClaims:
    """The three headline claims of the abstract, at reproduction scale."""

    @pytest.fixture(scope="class")
    def workbench(self):
        return Workbench(num_contexts=1, context_token_cap=2_500)

    def test_size_reduction_vs_quantization(self, workbench):
        """CacheGen reduces the KV cache size by ~3-4x vs the 8-bit baseline."""
        link = default_link()
        cachegen = workbench.evaluate(workbench.cachegen_method(), link=link)[0]
        quant = workbench.evaluate(UniformQuantizationBaseline(8), link=link)[0]
        ratio = quant.kv_size_bytes / cachegen.kv_size_bytes
        assert 2.5 < ratio < 6.0

    def test_ttft_reduction(self, workbench):
        """CacheGen reduces TTFT vs both text loading and quantization."""
        link = default_link()
        cachegen = workbench.evaluate(workbench.cachegen_method(), link=link)[0]
        quant = workbench.evaluate(UniformQuantizationBaseline(8), link=link)[0]
        text = workbench.evaluate(TextContextBaseline(), link=link)[0]
        assert quant.ttft_s / cachegen.ttft_s > 1.5
        assert text.ttft_s / cachegen.ttft_s > 2.0

    def test_quality_loss_small(self, workbench):
        cachegen = workbench.evaluate(workbench.cachegen_method(), link=default_link())[0]
        assert cachegen.quality.relative_quality > 0.97


class TestEndToEndEngine:
    def test_rag_style_reuse(self):
        """Ingest once, query twice — the second query must not pay prefill."""
        engine = ContextLoadingEngine("mistral-7b")
        engine.ingest("earnings-q4", 3_000)
        first = engine.query("earnings-q4", "Summarise the earnings report.")
        second = engine.query("earnings-q4", "What were the top revenue sources?")
        assert first.used_kv_cache and second.used_kv_cache
        text_path = engine.query("fresh-earnings", "Summarise.", num_tokens=3_000)
        assert second.ttft_s < text_path.ttft_s

    def test_engine_under_bandwidth_drop_meets_slo(self):
        """With an SLO and a mid-transfer bandwidth drop, the engine adapts."""
        trace = StepTrace(gbps(2), gbps(0.1), gbps(1), drop_at_s=0.1, recover_at_s=1.0)
        engine = ContextLoadingEngine("mistral-7b", link=NetworkLink(trace))
        engine.ingest("doc", 3_000)
        response = engine.query("doc", "What is discussed?", slo_s=1.0)
        assert response.used_kv_cache
        assert len(set(response.chunk_configs)) >= 1


class TestCrossModelConsistency:
    @pytest.mark.parametrize("model_name", ["mistral-7b", "llama-34b"])
    def test_codec_works_across_models(self, model_name):
        from repro.core import CacheGenDecoder, CacheGenEncoder
        from repro.llm import SyntheticLLM

        llm = SyntheticLLM(model_name)
        samples = [llm.calculate_kv("profile", 300)]
        encoder = CacheGenEncoder().fit(samples)
        kv = llm.calculate_kv("ctx", 400)
        decoded = CacheGenDecoder(encoder).decode(encoder.encode(kv))
        distortion = kv.normalized_distortion_per_layer(decoded)
        assert float(np.mean(distortion)) < 0.1

    def test_dataset_records_drive_method_evaluation(self):
        workbench = Workbench(dataset=LongChatDataset(), num_contexts=2, context_token_cap=1_500)
        method = CacheGenMethod(workbench.encoder)
        results = workbench.evaluate(method, link=default_link())
        assert len(results) == 2
        assert all(r.quality.relative_quality > 0.9 for r in results)
