"""Per-request load processes driven by the concurrent simulator.

A *load process* describes what one request must do to get its context onto
the GPU, one stage at a time: each :class:`LoadStage` is a network transfer
(possibly zero bytes) followed by optional GPU work (a bitstream decode or a
prefill).  The simulator asks the process for its next stage only when the
previous one finished, passing the throughput measured on this request's own
transfers and the number of requests currently in flight — so adaptive
processes decide chunk by chunk against live, scheduler-derived contention.
The method harness's :class:`~repro.streaming.streamer.KVStreamer` times a
lone request with a static ``1/n`` share instead;
``tests/serving/test_executor_agreement.py`` holds the two to the same
per-chunk decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ...core.decoder import CacheGenDecoder
from ...core.kv_cache import KVCache
from ...llm.compute_model import ComputeModel
from ...network.link import NetworkLink
from ...streaming.adaptation import AdaptationPolicy, StreamDecision, TEXT_CONFIG
from ...streaming.chunking import PreparedChunk
from ...streaming.streamer import materialise
from .resources import DECODE, PREFILL

__all__ = [
    "LoadStage",
    "LoadProcess",
    "StaticLoad",
    "ChunkedKVLoad",
    "PROMPT_CONFIG",
    "TIER_CONFIG",
]

#: Stage name of the final user-prompt prefill.
PROMPT_CONFIG = "prompt"

#: Stage name of a cold-tier read (disk/object store -> node memory).  Tier
#: stages move bytes over the node's *tier* link, not its serving link, and
#: are excluded from a request's transmitted-bytes accounting.
TIER_CONFIG = "cold-tier"


@dataclass(frozen=True)
class LoadStage:
    """One transfer-then-compute step of a request.

    Attributes
    ----------
    config:
        Configuration label (an encoding level, ``"text"``, ``"quant"``, or
        ``"prompt"``); recorded in the request timeline.
    num_bytes:
        Bytes to move over the request's link before the GPU work can start
        (0 for pure-compute stages such as the prompt prefill).
    gpu_kind:
        ``"decode"``, ``"prefill"``, or ``None`` for transfer-only stages.
    gpu_s:
        Solo duration of the GPU work at full GPU (batching and queueing are
        the scheduler's business).
    batch_key:
        Decodes sharing a batch key may be coalesced into one launch.
    session_key:
        Chat-session identity of the request, used by the fleet's sticky
        dispatch policy to keep a session on one GPU worker.
    link:
        Optional link override: the transfer runs over this link's FIFO
        channel instead of the request's serving link.  Cold-tier reads use
        it so concurrent cold hits on the same node serialize on that node's
        tier link while other requests stream over their serving links.
    """

    config: str
    num_bytes: float = 0.0
    gpu_kind: str | None = None
    gpu_s: float = 0.0
    batch_key: str | None = None
    session_key: str | None = None
    link: NetworkLink | None = None


class LoadProcess(Protocol):
    """Interface the concurrent simulator drives."""

    def next_stage(
        self, throughput_bps: float, elapsed_s: float, concurrency: int
    ) -> LoadStage | None:
        """The next stage, or ``None`` when the request is done.

        Parameters
        ----------
        throughput_bps:
            Throughput measured on this request's previous transfer.
        elapsed_s:
            Time since this request arrived (for SLO accounting).
        concurrency:
            Requests currently in flight (scheduler-derived contention).
        """
        ...


class StaticLoad:
    """A fixed stage list — the text and quantization baselines.

    The text baseline is one stage (ship the text, prefill the context); the
    uniform-quantization baseline is one transfer of the fixed-width tensors.
    A trailing prompt-prefill stage models the user's new question.
    """

    def __init__(self, stages: Sequence[LoadStage]) -> None:
        self._stages = list(stages)
        self._next = 0

    def next_stage(
        self, throughput_bps: float, elapsed_s: float, concurrency: int
    ) -> LoadStage | None:
        if self._next >= len(self._stages):
            return None
        stage = self._stages[self._next]
        self._next += 1
        return stage

    @staticmethod
    def text_load(
        num_tokens: int,
        text_bytes: float,
        compute: ComputeModel,
        prompt_tokens: int = 0,
    ) -> "StaticLoad":
        """Ship the context as text and prefill it (plus the prompt)."""
        stages = [
            LoadStage(
                config=TEXT_CONFIG,
                num_bytes=text_bytes,
                gpu_kind=PREFILL,
                gpu_s=compute.prefill_delay(num_tokens),
            )
        ]
        if prompt_tokens > 0:
            stages.append(_prompt_stage(compute, prompt_tokens))
        return StaticLoad(stages)

    @staticmethod
    def quant_load(
        num_bytes: float, compute: ComputeModel, prompt_tokens: int = 0
    ) -> "StaticLoad":
        """Ship uniformly quantized tensors (rescaling cost is negligible)."""
        stages = [LoadStage(config="quant", num_bytes=num_bytes)]
        if prompt_tokens > 0:
            stages.append(_prompt_stage(compute, prompt_tokens))
        return StaticLoad(stages)


def _prompt_stage(compute: ComputeModel, prompt_tokens: int) -> LoadStage:
    return LoadStage(
        config=PROMPT_CONFIG,
        gpu_kind=PREFILL,
        gpu_s=compute.prefill_delay(prompt_tokens),
    )


class ChunkedKVLoad:
    """CacheGen's chunked KV streaming as a load process.

    The §5.3 streaming loop of every served request: before
    each chunk the adaptation policy picks a configuration from the measured
    throughput and the remaining SLO budget; KV chunks become transfer+decode
    stages, text fallbacks become transfer+prefill stages.  Decisions are
    recorded so the delivered KV cache can be reconstructed afterwards.

    Parameters
    ----------
    prepared:
        The context's offline-encoded chunks.
    policy:
        Per-chunk adaptation policy.
    compute:
        GPU latency model (decode/prefill durations at full GPU).
    slo_s:
        Optional TTFT objective driving the policy.
    prompt_tokens:
        When positive, a final prompt-prefill stage is appended.
    batch_key:
        Batching domain of this request's decodes (the serving node id);
        decodes of co-located requests may share one batched launch.
    session_key:
        Chat-session identity threaded onto every stage, so sticky fleet
        dispatch can keep the session's GPU work on one worker.
    prologue:
        Stages issued before the first chunk, bypassing the adaptation
        policy.  A cold-tier hit prepends the serialized tier-link read here.
    """

    def __init__(
        self,
        prepared: Sequence[PreparedChunk],
        policy: AdaptationPolicy,
        compute: ComputeModel,
        slo_s: float | None = None,
        prompt_tokens: int = 0,
        batch_key: str | None = None,
        session_key: str | None = None,
        prologue: Sequence[LoadStage] = (),
    ) -> None:
        if not prepared:
            raise ValueError("no chunks to stream")
        self.prepared = list(prepared)
        self.policy = policy
        self.compute = compute
        self.slo_s = slo_s
        self.prompt_tokens = prompt_tokens
        self.batch_key = batch_key
        self.session_key = session_key
        self.decisions: list[StreamDecision] = []
        self._prologue = list(prologue)
        self._position = 0
        self._prompt_issued = False

    def next_stage(
        self, throughput_bps: float, elapsed_s: float, concurrency: int
    ) -> LoadStage | None:
        if self._prologue:
            return self._prologue.pop(0)
        if self._position < len(self.prepared):
            remaining = self.prepared[self._position :]
            remaining_time = (
                float("inf") if self.slo_s is None else max(self.slo_s - elapsed_s, 0.0)
            )
            recompute_time = self.compute.prefill_delay(
                sum(chunk.num_tokens for chunk in remaining)
            )
            decision = self.policy.decide(
                remaining,
                throughput_bps=throughput_bps,
                remaining_time_s=remaining_time,
                recompute_time_s=recompute_time,
                concurrency=max(concurrency, 1),
            )
            self.decisions.append(decision)
            chunk = remaining[0]
            self._position += 1
            if decision.is_text:
                return LoadStage(
                    config=TEXT_CONFIG,
                    num_bytes=float(chunk.text_bytes),
                    gpu_kind=PREFILL,
                    gpu_s=self.compute.prefill_delay(chunk.num_tokens),
                    batch_key=self.batch_key,
                    session_key=self.session_key,
                )
            return LoadStage(
                config=decision.config,
                num_bytes=chunk.bytes_for_level(decision.config),
                gpu_kind=DECODE,
                gpu_s=self.compute.decode_delay(chunk.num_tokens),
                batch_key=self.batch_key,
                session_key=self.session_key,
            )
        if self.prompt_tokens > 0 and not self._prompt_issued:
            self._prompt_issued = True
            return _prompt_stage(self.compute, self.prompt_tokens)
        return None

    # ------------------------------------------------------------------ result
    @property
    def configs(self) -> list[str]:
        return [decision.config for decision in self.decisions]

    def materialise(self, decoder: CacheGenDecoder) -> KVCache:
        """The KV cache the model ends up with, given the decisions made."""
        return materialise(self.prepared, self.configs, decoder)
