"""End-to-end context-loading engine (the §6 serving integration).

This is the component an application framework (the paper integrates with
LangChain) talks to:

* :meth:`ContextLoadingEngine.ingest` computes a context's KV cache once
  (``calculate_kv``), encodes it at every level and stores the bitstreams
  (``store_kv``);
* :meth:`ContextLoadingEngine.query` answers a question against a context —
  if its KV cache is stored, the engine streams and decodes it (adapting to
  bandwidth and an optional TTFT SLO) and calls ``generate_with_kv``;
  otherwise it falls back to fetching the text and prefilling.

The engine also follows §7.3's observation that for short contexts loading
the text can be faster than loading the KV cache: when the estimated
text-path TTFT is lower, it reverts to the text path even for stored
contexts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from ..core.kv_cache import KVCache

from ..core.config import CacheGenConfig
from ..core.decoder import CacheGenDecoder
from ..core.encoder import CacheGenEncoder
from ..llm.compute_model import A40, ComputeModel, GPUSpec
from ..llm.model_config import ModelConfig, get_model_config
from ..llm.quality import QualityModel
from ..llm.synthetic_model import GenerationResult, SyntheticLLM
from ..metrics.system import TTFTBreakdown
from ..network.link import NetworkLink
from ..storage.eviction import EvictionPolicy, make_policy
from ..storage.kv_store import KVCacheStore, StoredContext
from ..streaming.adaptation import FixedLevelPolicy, SLOAwareAdapter
from ..streaming.streamer import KVStreamer, materialise
from ._compat import warn_deprecated_entry_point
from .pipeline import IngestReport, QueryResponse

__all__ = ["ContextLoadingEngine"]

#: Number of synthetic sample contexts used to profile the encoder offline.
_PROFILE_SAMPLES = 2
_PROFILE_TOKENS = 1_500

#: Number of lossless reference KV caches the engine keeps memoized.  The
#: reference is needed on every KV-path query to score generation quality;
#: recomputing it would re-pay the whole prefill the cache exists to avoid.
_REFERENCE_CACHE_ENTRIES = 128


@dataclass
class _EngineComponents:
    llm: SyntheticLLM
    compute: ComputeModel
    encoder: CacheGenEncoder
    decoder: CacheGenDecoder
    store: KVCacheStore


class ContextLoadingEngine:
    """Serves queries over reusable long contexts with CacheGen underneath.

    Parameters
    ----------
    model:
        Serving model (name or :class:`ModelConfig`).
    link:
        Network link between the KV storage server and the GPU server.
    config:
        Codec/streamer configuration; defaults to the paper's settings.
    gpu:
        GPU specification of the serving node.
    base_quality:
        Optional per-task lossless quality overrides for the quality surrogate.
    store_max_bytes / store_eviction_policy:
        Optional capacity bound (and victim-selection policy) of the node's
        bitstream store; ``None`` keeps the store unbounded.

    .. deprecated::
        Direct construction is deprecated; declare a
        :class:`repro.serving.api.ServingSpec` and use
        :func:`repro.serving.api.serve` / ``build_backend`` instead.

    Example
    -------
    >>> engine = ContextLoadingEngine("mistral-7b")
    >>> engine.ingest("doc-1", num_tokens=8_000)  # doctest: +SKIP
    >>> engine.query("doc-1", "what changed?").ttft.total_s  # doctest: +SKIP
    """

    def __init__(
        self,
        model: ModelConfig | str,
        link: NetworkLink | None = None,
        config: CacheGenConfig | None = None,
        gpu: GPUSpec = A40,
        base_quality: dict[str, float] | None = None,
        store_max_bytes: float | None = None,
        store_eviction_policy: str | EvictionPolicy = "lru",
    ) -> None:
        if type(self) is ContextLoadingEngine:
            warn_deprecated_entry_point(
                "ContextLoadingEngine", 'ServingSpec(topology="single")'
            )
        if isinstance(model, str):
            model = get_model_config(model)
        self.model = model
        self.link = link or NetworkLink()
        self.config = config or CacheGenConfig()

        quality_model = QualityModel(num_layers=model.sim_layers, base_values=base_quality)
        llm = SyntheticLLM(model, quality_model=quality_model)
        encoder = CacheGenEncoder(self.config)
        encoder.fit(
            [llm.calculate_kv(f"__profile-{i}", _PROFILE_TOKENS) for i in range(_PROFILE_SAMPLES)]
        )
        policy = (
            make_policy(store_eviction_policy)
            if isinstance(store_eviction_policy, str)
            else store_eviction_policy
        )
        self._parts = _EngineComponents(
            llm=llm,
            compute=ComputeModel(model, gpu),
            encoder=encoder,
            decoder=CacheGenDecoder(encoder),
            store=KVCacheStore(
                encoder, max_bytes=store_max_bytes, eviction_policy=policy
            ),
        )
        self._reference_cache: OrderedDict[tuple[str, int], KVCache] = OrderedDict()
        #: Liveness of the node's bitstream store.  Fault injection flips this
        #: on a single-node crash: stored contexts become unreachable (queries
        #: degrade to the text re-prefill path) until recovery.
        self.store_up = True

    # ------------------------------------------------------------------ access
    @property
    def llm(self) -> SyntheticLLM:
        return self._parts.llm

    @property
    def store(self) -> KVCacheStore:
        return self._parts.store

    @property
    def encoder(self) -> CacheGenEncoder:
        return self._parts.encoder

    @property
    def decoder(self) -> CacheGenDecoder:
        return self._parts.decoder

    @property
    def compute_model(self) -> ComputeModel:
        return self._parts.compute

    # --------------------------------------------------------------- reference
    def _reference_kv(self, context_id: str, num_tokens: int) -> KVCache:
        """Lossless KV cache of a context, memoized across ingest and queries.

        ``calculate_kv`` is deterministic in ``(context_id, num_tokens)``, so
        the memo stays valid even if the stored bitstreams are evicted and the
        context is later re-ingested.  The memo is LRU-bounded so long
        simulations do not hold every context's tensors in memory.
        """
        key = (context_id, num_tokens)
        cache = self._reference_cache
        kv = cache.get(key)
        if kv is None:
            kv = self._parts.llm.calculate_kv(context_id, num_tokens)
            cache[key] = kv
            if len(cache) > _REFERENCE_CACHE_ENTRIES:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return kv

    def _generate_from_stored(
        self, stored: StoredContext, configs: Sequence[str], task: str
    ) -> GenerationResult:
        """Response to a read of ``stored`` whose chunks arrived as ``configs``.

        The delivered tensor — and so the response — is fixed by the record
        and the per-chunk configurations, so each is decoded, assembled and
        scored against the lossless reference once and remembered on the
        record (see :attr:`StoredContext.generations`).
        """
        key = (tuple(configs), task)
        generation = stored.generations.get(key)
        if generation is None:
            generation = stored.generations[key] = self._parts.llm.generate_with_kv(
                materialise(stored.chunks, configs, self._parts.decoder),
                reference_kv=self._reference_kv(stored.context_id, stored.num_tokens),
                task=task,
            )
        return generation

    # ------------------------------------------------------------------ ingest
    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        """Prefill a context once, encode its KV cache and store the bitstreams.

        ``encode_delay_s`` is the *modeled* GPU encode time
        (:meth:`~repro.llm.compute_model.ComputeModel.encode_delay`), not a
        wall-clock measurement: ingest is part of the simulated world, and a
        host-time read here would leak nondeterminism into traces and reports.
        """
        kv = self._reference_kv(context_id, num_tokens)
        stored = self._parts.store.store_kv(context_id, kv)
        per_level: dict[str, float] = {}
        for chunk in stored.chunks:
            for level_name, encoded in chunk.encodings.items():
                per_level[level_name] = per_level.get(level_name, 0.0) + encoded.compressed_bytes
        return IngestReport(
            context_id=context_id,
            num_tokens=num_tokens,
            num_chunks=stored.num_chunks,
            stored_bytes_per_level=per_level,
            encode_delay_s=self._parts.compute.encode_delay(num_tokens),
        )

    # ------------------------------------------------------------------- query
    def query(
        self,
        context_id: str,
        question: str,
        num_tokens: int | None = None,
        task: str = "qa_accuracy",
        slo_s: float | None = None,
    ) -> QueryResponse:
        """Answer a question against a context, loading its KV cache if stored.

        ``num_tokens`` is only required for contexts that were never ingested
        (the engine then falls back to the text path).
        """
        parts = self._parts
        prompt_tokens = max(parts.llm.tokenizer.count_tokens(question), 1)

        if self.store_up and context_id in parts.store:
            stored = parts.store.get_context(context_id)
            if not self._prefer_text_path(stored.num_tokens):
                return self._query_with_kv(stored, question, prompt_tokens, task, slo_s)
            num_tokens = stored.num_tokens
        if num_tokens is None:
            raise ValueError(
                "num_tokens is required for contexts that have not been ingested"
            )
        return self._query_with_text(context_id, question, num_tokens, prompt_tokens, task)

    # ------------------------------------------------------------------ pieces
    def _prefer_text_path(
        self,
        num_tokens: int,
        kv_link: NetworkLink | None = None,
        text_link: NetworkLink | None = None,
        kv_extra_s: float = 0.0,
    ) -> bool:
        """Short contexts load faster as text than as KV bitstreams (§7.3).

        The two paths may use different links (in a cluster the KV bitstreams
        come from a storage node, the text from the document store).
        ``kv_extra_s`` charges the KV path for delays beyond the serving link
        — a cold-tier hit pays the node's tier link before streaming starts.
        """
        parts = self._parts
        kv_link = kv_link or self.link
        text_link = text_link or self.link
        text_bytes = num_tokens * self.config.text_bytes_per_token
        text_ttft = text_link.estimate_transfer_time(text_bytes) + parts.compute.prefill_delay(
            num_tokens
        )
        kv_bytes = self.model.kv_cache_bytes(num_tokens, bits_per_element=2.4)
        kv_ttft = (
            kv_link.estimate_transfer_time(kv_bytes)
            + parts.compute.decode_delay(num_tokens)
            + kv_extra_s
        )
        return text_ttft < kv_ttft

    def _query_with_kv(
        self,
        stored,
        question: str,
        prompt_tokens: int,
        task: str,
        slo_s: float | None,
        link: NetworkLink | None = None,
        extra_network_s: float = 0.0,
        level_override: str | None = None,
    ) -> QueryResponse:
        parts = self._parts
        link = link or self.link
        streamer = KVStreamer(
            decoder=parts.decoder,
            compute_model=parts.compute,
            initial_throughput_bps=link.trace.bandwidth_at(0.0),
        )
        # A degraded read pins the (cheaper) level the resilience layer chose
        # — adaptation would climb back to the level that just timed out.
        if level_override is not None:
            policy = FixedLevelPolicy(level_name=level_override)
        elif slo_s is not None:
            policy = SLOAwareAdapter(level_names=[level.name for level in self.config.levels])
        else:
            policy = FixedLevelPolicy(level_name=self.config.default_level.name)
        # A cold-tier hit serializes the tier read before streaming, shrinking
        # the SLO budget the adapter has left for the serving link.
        streaming_slo = None if slo_s is None else max(slo_s - extra_network_s, 0.0)
        streamed = streamer.stream(
            stored.chunks, link=link, policy=policy, slo_s=streaming_slo, reconstruct=False
        )
        generation = self._generate_from_stored(stored, streamed.configs, task)
        ttft = TTFTBreakdown(
            network_s=streamed.network_time_s + extra_network_s,
            decode_s=max(streamed.total_time_s - streamed.network_time_s, 0.0),
            compute_s=parts.compute.prefill_delay(prompt_tokens),
        )
        return QueryResponse(
            context_id=stored.context_id,
            question=question,
            text=generation.text,
            quality=generation.quality,
            ttft=ttft,
            used_kv_cache=True,
            chunk_configs=streamed.configs,
            transmitted_bytes=streamed.total_bytes,
        )

    def _query_with_text(
        self,
        context_id: str,
        question: str,
        num_tokens: int,
        prompt_tokens: int,
        task: str,
        link: NetworkLink | None = None,
    ) -> QueryResponse:
        parts = self._parts
        link = link or self.link
        text_bytes = num_tokens * self.config.text_bytes_per_token
        transfer = link.transfer(text_bytes)
        # Recomputing from text hands the model the lossless cache itself.
        generation = parts.llm.generate_with_kv(
            self._reference_kv(context_id, num_tokens), task=task
        )
        ttft = TTFTBreakdown(
            network_s=transfer.duration,
            decode_s=0.0,
            compute_s=parts.compute.prefill_delay(num_tokens + prompt_tokens),
        )
        return QueryResponse(
            context_id=context_id,
            question=question,
            text=generation.text,
            quality=generation.quality,
            ttft=ttft,
            used_kv_cache=False,
            chunk_configs=["text"],
            transmitted_bytes=text_bytes,
        )
