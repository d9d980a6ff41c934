"""The KV cache streamer: SLO-aware streaming of encoded KV chunks.

The streamer drives the end-to-end fetch of a context's KV cache over a
(bandwidth-varying) link:

1. before sending each chunk it asks the adaptation policy for a streaming
   configuration (an encoding level or the text fallback),
2. it transfers the chosen representation over the link,
3. it pipelines the receiver-side work (GPU bitstream decode for KV chunks,
   prefill for text chunks) with the transfer of the following chunk,
4. it measures the achieved throughput, which feeds the next decision.

The result records the full timeline (for the Figure 7 time-series and the
Figure 13 SLO-violation study) and reconstructs the KV cache actually handed
to the model so generation quality can be evaluated downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.decoder import CacheGenDecoder
from ..core.kv_cache import KVCache
from ..llm.compute_model import ComputeModel
from ..network.link import NetworkLink
from .adaptation import AdaptationPolicy, StreamDecision, TEXT_CONFIG
from .chunking import PreparedChunk

__all__ = ["StreamedChunk", "StreamingResult", "KVStreamer", "materialise"]


def materialise(
    chunks: Sequence[PreparedChunk], configs: Sequence[str], decoder: CacheGenDecoder
) -> KVCache:
    """The KV cache the model ends up with when ``chunks`` arrive as ``configs``."""
    if len(configs) != len(chunks):
        raise RuntimeError("cannot materialise an unfinished load")
    return KVCache.concat(
        [
            # Recomputing from text reproduces the lossless KV slice.
            chunk.chunk.kv
            if config == TEXT_CONFIG
            else decoder.decode(chunk.encodings[config])
            for chunk, config in zip(chunks, configs)
        ]
    )


@dataclass(frozen=True)
class StreamedChunk:
    """Timeline record of one streamed chunk."""

    index: int
    config: str
    num_bytes: float
    transfer_start_s: float
    transfer_end_s: float
    ready_at_s: float
    achieved_throughput_bps: float

    @property
    def is_text(self) -> bool:
        return self.config == TEXT_CONFIG


@dataclass
class StreamingResult:
    """Outcome of streaming one context's KV cache."""

    chunks: list[StreamedChunk] = field(default_factory=list)
    kv: KVCache | None = None
    slo_s: float | None = None

    @property
    def total_time_s(self) -> float:
        """Time until the last chunk is decoded / recomputed (loading delay)."""
        if not self.chunks:
            return 0.0
        return max(chunk.ready_at_s for chunk in self.chunks)

    @property
    def network_time_s(self) -> float:
        if not self.chunks:
            return 0.0
        return max(chunk.transfer_end_s for chunk in self.chunks)

    @property
    def total_bytes(self) -> float:
        return sum(chunk.num_bytes for chunk in self.chunks)

    @property
    def slo_violated(self) -> bool:
        if self.slo_s is None:
            return False
        return self.total_time_s > self.slo_s

    @property
    def configs(self) -> list[str]:
        return [chunk.config for chunk in self.chunks]


class KVStreamer:
    """Streams a prepared context's KV chunks over a link with adaptation.

    Parameters
    ----------
    decoder:
        The CacheGen decoder used to reconstruct KV chunks (and to account for
        the decode stage of the pipeline).
    compute_model:
        Compute/latency model of the GPU server (decode delay, prefill delay
        for text chunks).
    initial_throughput_bps:
        Throughput assumed for the first chunk when no prior knowledge is
        available.  The paper starts from a default medium encoding level; any
        reasonable prior works because the estimate is corrected after the
        first chunk.

    Example
    -------
    >>> streamer = KVStreamer(decoder, compute_model)  # doctest: +SKIP
    >>> result = streamer.stream(chunks, link, slo_s=1.0)  # doctest: +SKIP
    >>> result.total_time_s, result.configs  # doctest: +SKIP
    """

    def __init__(
        self,
        decoder: CacheGenDecoder,
        compute_model: ComputeModel,
        initial_throughput_bps: float = 3e9,
    ) -> None:
        if initial_throughput_bps <= 0:
            raise ValueError("initial_throughput_bps must be positive")
        self.decoder = decoder
        self.compute_model = compute_model
        self.initial_throughput_bps = initial_throughput_bps

    def stream(
        self,
        prepared_chunks: Sequence[PreparedChunk],
        link: NetworkLink,
        policy: AdaptationPolicy,
        slo_s: float | None = None,
        gpu_share: float = 1.0,
        concurrency: int = 1,
    ) -> StreamingResult:
        """Stream all chunks of one context and return the timeline.

        Parameters
        ----------
        prepared_chunks:
            Offline-encoded chunks of the context.
        link:
            The network link between the storage server and the GPU server.
        policy:
            Adaptation policy deciding each chunk's configuration.
        slo_s:
            TTFT service-level objective; ``None`` means "no deadline" (the
            adapter then simply picks the highest feasible quality, and the
            result never reports an SLO violation).
        gpu_share:
            Fraction of the GPU available to this request (1/n under n
            concurrent requests).
        concurrency:
            Number of concurrent requests sharing the link (scales expected
            and actual transfer delays, §5.3).
        """
        if not prepared_chunks:
            raise ValueError("no chunks to stream")
        result = StreamingResult(slo_s=slo_s)
        throughput = self.initial_throughput_bps
        transfer_clock = 0.0
        ready_clock = 0.0

        for position, prepared in enumerate(prepared_chunks):
            remaining = list(prepared_chunks[position:])
            remaining_tokens = sum(chunk.num_tokens for chunk in remaining)
            recompute_time = self.compute_model.prefill_delay(remaining_tokens, gpu_share)
            remaining_time = float("inf") if slo_s is None else max(slo_s - transfer_clock, 0.0)
            decision = policy.decide(
                remaining,
                throughput_bps=throughput,
                remaining_time_s=remaining_time,
                recompute_time_s=recompute_time,
                concurrency=concurrency,
            )

            num_bytes, process_delay = self._configuration_cost(prepared, decision, gpu_share)
            transfer = link.transfer(num_bytes * concurrency, transfer_clock)
            transfer_clock = transfer.end_time
            ready_clock = max(transfer_clock, ready_clock) + process_delay
            throughput = max(transfer.achieved_throughput_bps / concurrency, 1.0)

            result.chunks.append(
                StreamedChunk(
                    index=prepared.index,
                    config=decision.config,
                    num_bytes=num_bytes,
                    transfer_start_s=transfer.start_time,
                    transfer_end_s=transfer.end_time,
                    ready_at_s=ready_clock,
                    achieved_throughput_bps=throughput,
                )
            )
        result.kv = materialise(prepared_chunks, result.configs, self.decoder)
        return result

    # ------------------------------------------------------------------ pieces
    def _configuration_cost(
        self, prepared: PreparedChunk, decision: StreamDecision, gpu_share: float
    ) -> tuple[float, float]:
        """Bytes to transfer and receiver-side processing delay for a decision."""
        if decision.is_text:
            num_bytes = float(prepared.text_bytes)
            process_delay = self.compute_model.prefill_delay(prepared.num_tokens, gpu_share)
        else:
            num_bytes = prepared.bytes_for_level(decision.config)
            process_delay = self.compute_model.decode_delay(prepared.num_tokens, gpu_share)
        return num_bytes, process_delay
