"""Common interface of the context-loading methods the paper compares.

Every method — CacheGen itself, the quantization baseline, the text-context
baseline, and the context-compression baselines (H2O, LLMLingua,
Scissorhands, Gisting, smaller models) — answers the same question: *given a
reusable context, what does it cost to make the LLM ready to answer a new
query about it?*  The cost has two halves the paper measures (§7.1):

* the bytes that must cross the network (the KV cache size / bandwidth), and
* the time-to-first-token, i.e. loading delay plus the prefill of the query.

A method describes its load as a
:class:`~repro.serving.concurrent.processes.LoadProcess` (:meth:`load`:
transfer the bytes, then any GPU work, then the prompt prefill), and the
event engine that serves requests times it
(:class:`~repro.serving.concurrent.simulator.ConcurrentLoadSimulator`) — one
timing model for the serving path and the method harness alike.
:class:`LoadRequest` bundles everything a method may need;
:class:`MethodResult` is the uniform result consumed by the experiment
harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.kv_cache import KVCache
from ..datasets.base import ContextRecord
from ..llm.compute_model import ComputeModel
from ..llm.quality import GenerationQuality, QualityModel
from ..llm.synthetic_model import SyntheticLLM
from ..metrics.system import QueueingTTFTBreakdown
from ..network.link import NetworkLink
from ..serving.concurrent.processes import LoadProcess, LoadStage, StaticLoad
from ..serving.concurrent.simulator import ConcurrentLoadSimulator

__all__ = ["LoadRequest", "MethodResult", "ContextLoadingMethod"]


@dataclass
class LoadRequest:
    """One context-loading request to be evaluated by a method.

    Attributes
    ----------
    record:
        The dataset record (context id, length, task, prompt length).
    llm:
        The serving model's synthetic substrate.
    reference_kv:
        The lossless KV cache of the context (the output of ``calculate_kv``),
        used both as the decode reference and to quantify quality loss.
    link:
        Network link between the storage server and the GPU server.
    compute_model:
        GPU latency model.
    quality_model:
        Quality surrogate configured with the dataset's base quality.
    slo_s:
        Optional TTFT SLO (used by adaptive streaming).
    """

    record: ContextRecord
    llm: SyntheticLLM
    reference_kv: KVCache
    link: NetworkLink
    compute_model: ComputeModel
    quality_model: QualityModel
    slo_s: float | None = None

    @property
    def num_tokens(self) -> int:
        return self.record.num_tokens

    @property
    def task(self) -> str:
        return self.record.task


@dataclass
class MethodResult:
    """Uniform result of evaluating a context-loading method on one request.

    ``loading_delay_s`` is the TTFT less the user-prompt prefill: the time
    until the context itself was ready, which is what an SLO on context
    loading is held to (Figures 7 and 13).
    """

    method: str
    transmitted_bytes: float
    breakdown: QueueingTTFTBreakdown
    quality: GenerationQuality
    loading_delay_s: float
    extras: Mapping[str, Any] = field(default_factory=dict)

    @property
    def ttft_s(self) -> float:
        return self.breakdown.total_s

    @property
    def kv_size_bytes(self) -> float:
        """Size of the (compressed) KV representation that was transmitted."""
        return self.transmitted_bytes


class ContextLoadingMethod(abc.ABC):
    """Abstract base class of all context-loading methods."""

    #: Human-readable method name used in experiment tables.
    name: str = "method"

    @abc.abstractmethod
    def load(self, request: LoadRequest) -> LoadProcess:
        """The stages of loading ``request``'s context, the prompt prefill last."""

    @abc.abstractmethod
    def outcome(
        self, request: LoadRequest, process: LoadProcess
    ) -> tuple[GenerationQuality, dict[str, Any]]:
        """Quality of what ``process`` delivered, and method-specific extras."""

    def stage(
        self, simulator: ConcurrentLoadSimulator, request: LoadRequest
    ) -> LoadProcess:
        """Stage this method's load of ``request`` at time 0 over ``request.link``.

        The first chunk assumes the link's bandwidth at time 0, as the
        serving path does.
        """
        process = self.load(request)
        simulator.add_request(
            0.0,
            request.link,
            process,
            initial_throughput_bps=request.link.trace.bandwidth_at(0.0),
        )
        return process

    def evaluate(self, request: LoadRequest) -> MethodResult:
        """Play the load alone on the event engine and score what it delivered."""
        simulator = ConcurrentLoadSimulator()
        process = self.stage(simulator, request)
        (timeline,) = simulator.run()
        quality, extras = self.outcome(request, process)
        return MethodResult(
            method=self.name,
            transmitted_bytes=timeline.served_bytes,
            breakdown=timeline.ttft,
            quality=quality,
            loading_delay_s=timeline.loading_s,
            extras=extras,
        )

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def then_prompt(
        request: LoadRequest,
        stage: LoadStage,
        compute: ComputeModel | None = None,
    ) -> StaticLoad:
        """``stage``, then the prefill of the user's question on ``compute``."""
        return StaticLoad.with_prompt(
            stage, compute or request.compute_model, request.record.prompt_tokens
        )

    @staticmethod
    def lossless_quality(request: LoadRequest) -> GenerationQuality:
        """Quality achieved with an exact KV cache."""
        return request.quality_model.score(
            task=request.task,
            layer_distortion=np.zeros(request.reference_kv.num_layers),
        )
