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

The bitstreams live in one :class:`~repro.cluster.sharded_store.ShardedKVStore`
(``engine.cluster``) however many storage nodes stand behind it: the paper's
single KV storage server is the one-node case, whose node serves over the
engine's own ``link``.  Ingests are encoded once and replicated onto the
store; when a replica is down the lookup fails over along the hash ring, and
when every replica has lost the context the engine falls back to the text
path, so a degraded store degrades TTFT, never availability.

Routing is decided once, in :meth:`ContextLoadingEngine.resolve`: it maps a
request to a :class:`Resolution` (stream the stored KV from which replica, or
fall back to text, and why).  The executor
(:func:`~repro.serving.concurrent.engine.serve_batch`, of which :meth:`serve`
is the one-request case) plays the decision on the event engine and builds its
responses with :meth:`respond`.

The engine also follows §7.3's observation that for short contexts loading
the text can be faster than loading the KV cache: when the estimated
text-path TTFT is lower, it reverts to the text path even for stored
contexts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from ..cluster.node import StorageNode
from ..cluster.sharded_store import ShardedKVStore
from ..core.kv_cache import KVCache

from ..core.config import CacheGenConfig
from ..core.decoder import CacheGenDecoder
from ..core.encoder import CacheGenEncoder, FittedCodec, _fit_fields
from ..llm.compute_model import A40, ComputeModel, GPUSpec
from ..llm.model_config import ModelConfig, get_model_config
from ..llm.quality import QualityModel
from ..llm.synthetic_model import GenerationResult, SyntheticLLM
from ..metrics.cluster import TierState, tier_state
from ..network.link import NetworkLink
from ..storage.eviction import EvictionPolicy, make_policy
from ..storage.kv_store import KVCacheStore, StoredContext
from ..storage.tiered import DiskKVStore, PlacementPolicy, TieredKVStore
from ..streaming.adaptation import AdaptationPolicy, FixedLevelPolicy, SLOAwareAdapter
from ..streaming.streamer import materialise
from .api.types import ServeRequest, ServeResponse
from .concurrent.engine import serve_batch
from .concurrent.simulator import ConcurrentLoadSimulator
from .pipeline import IngestReport

__all__ = ["Resolution", "ContextLoadingEngine", "profile_codec"]

#: Number of synthetic sample contexts used to profile the encoder offline.
_PROFILE_SAMPLES = 2
_PROFILE_TOKENS = 1_500

#: Number of lossless reference KV caches the engine keeps memoized.  The
#: reference is needed on every KV-path query to score generation quality;
#: recomputing it would re-pay the whole prefill the cache exists to avoid.
_REFERENCE_CACHE_ENTRIES = 128

#: Every profile taken in this process, by resolved model and ``_fit_fields``.
#: Unbounded: one entry per distinct key, and a run uses one key per model.
_PROFILES: dict[tuple[ModelConfig, tuple], FittedCodec] = {}


def profile_codec(model: ModelConfig | str, config: CacheGenConfig | None = None) -> FittedCodec:
    """``model``'s offline symbol-distribution profile, taken once per process.

    Profiling is the expensive half of constructing a
    :class:`ContextLoadingEngine` (two sample prefills and one table fit per
    level).  The result depends only on the model's :class:`ModelConfig` and
    on the configuration fields :class:`~repro.core.encoder.FittedCodec` is
    keyed by, so it is memoized on exactly that: the first call for a key
    profiles, every later one returns the same immutable codec, whatever
    ``chunk_tokens``, default level or entropy-coding switches it passes.
    Every engine and backend built without ``codec=`` shares it through here.
    An entry (≈10 MiB once its log-probability tables are scored) lives as
    long as the process; the sharing assumes the single-threaded stack the
    codec's scoring scratch already does.

    Example
    -------
    >>> codec = profile_codec("mistral-7b")  # doctest: +SKIP
    >>> profile_codec("mistral-7b", CacheGenConfig(chunk_tokens=256)) is codec  # doctest: +SKIP
    True
    """
    config = config or CacheGenConfig()
    if config.probability_grouping == "token":
        raise ValueError(
            'probability_grouping="token" cannot serve: a per-token-position model needs '
            "every tensor to have the profile's token count, and contexts and chunks vary "
            "in length; it exists for the Figure 5 grouping-entropy analysis only"
        )
    if isinstance(model, str):
        model = get_model_config(model)
    key = (model, _fit_fields(config))
    codec = _PROFILES.get(key)
    if codec is None:
        llm = SyntheticLLM(model)
        samples = [
            llm.calculate_kv(f"__profile-{i}", _PROFILE_TOKENS) for i in range(_PROFILE_SAMPLES)
        ]
        codec = _PROFILES[key] = CacheGenEncoder(config).fit(samples).codec
    return codec


@dataclass
class _EngineComponents:
    llm: SyntheticLLM
    compute: ComputeModel
    encoder: CacheGenEncoder
    decoder: CacheGenDecoder


@dataclass
class Resolution:
    """Where one request is served from (decided before any byte moves)."""

    use_kv: bool
    num_tokens: int
    #: Link the request's bytes cross: the replica's for a KV read, the
    #: document store's for a text fallback.
    link: NetworkLink
    stored: StoredContext | None = None
    #: Serving replica of a KV read (the text path is served by no node).
    node: StorageNode | None = None
    failed_over: bool = False
    #: Nodes the lookup touched before settling, in order.
    attempted: tuple[str, ...] = ()
    #: Tier the context is read from, as routing found it (``None`` on the
    #: text path).
    tier: str | None = None
    #: Resilience outcome of the lookup (see ``cluster.sharded_store.Lookup``).
    degraded: bool = False
    cause: str | None = None
    retries: int = 0
    hedged: bool = False
    #: Modeled retry/hedge delay serialized ahead of streaming.
    extra_delay_s: float = 0.0
    #: Modeled tier-link read a cold hit pays before streaming.
    tier_read_s: float = 0.0
    #: Codec level a degraded read streams at (``None`` = policy default).
    level_override: str | None = None


class ContextLoadingEngine:
    """Serves queries over reusable long contexts with CacheGen underneath.

    Parameters
    ----------
    model:
        Serving model (name or :class:`ModelConfig`).
    link:
        Network link to the document store, used by the text fallback — and,
        when ``node_links`` is omitted, the one storage node's serving link
        too, so text and KV bytes share one channel.  Defaults to a fresh
        3 Gbps link.
    config:
        Codec/streamer configuration; defaults to the paper's settings.
    gpu:
        GPU specification of the serving node.
    base_quality:
        Optional per-task lossless quality overrides for the quality surrogate.
    node_links:
        The storage nodes: their number (each on a default 3 Gbps link), or
        one :class:`NetworkLink` per node for heterogeneous clusters.
        ``None`` (the default) is one node on ``link`` itself.
    replication_factor:
        Replicas per context.
    max_bytes_per_node:
        Capacity budget of each node's store; ``None`` means unbounded.
    eviction_policy:
        Policy name (``"lru"``, ``"lfu"``, ``"cost"``) or a factory returning a
        fresh :class:`EvictionPolicy` per node (policies hold per-node state
        and must not be shared).
    cold_bytes_per_node:
        Capacity of each node's cold (disk/object-store) tier.  ``None`` (the
        default) keeps nodes single-tier; with a cold tier attached, hot-tier
        capacity evictions demote instead of drop and cold hits promote back.
        Requires ``max_bytes_per_node`` (an unbounded hot tier never demotes).
    tier_links:
        One tier link per node modeling its disk/object-store read path;
        defaults to each :class:`~repro.storage.tiered.DiskKVStore`'s 1 Gbps
        constant link.
    placement:
        Tier-admission policy for new contexts (``"hot"``, ``"cost"``, or a
        factory returning a fresh policy per node).
    codec:
        The offline profile to encode with; when omitted, the process-wide
        one :func:`profile_codec` keeps for this model and configuration
        (profiled on first use).  ``ValueError`` if it was profiled for
        another model, model shape or codec configuration.

    Example
    -------
    >>> engine = ContextLoadingEngine("mistral-7b", node_links=4, replication_factor=2)
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
        *,
        node_links: int | Sequence[NetworkLink] | None = None,
        replication_factor: int = 1,
        max_bytes_per_node: float | None = None,
        eviction_policy: str | Callable[[], EvictionPolicy] = "lru",
        cold_bytes_per_node: float | None = None,
        tier_links: Sequence[NetworkLink] | None = None,
        placement: str | Callable[[], PlacementPolicy] = "hot",
        vnodes: int = 64,
        codec: FittedCodec | None = None,
    ) -> None:
        if isinstance(model, str):
            model = get_model_config(model)
        self.model = model
        self.link = link or NetworkLink()
        self.config = config or CacheGenConfig()
        if codec is None:
            codec = profile_codec(model, self.config)
        else:
            codec.check(self.config, model)

        quality_model = QualityModel(num_layers=model.sim_layers, base_values=base_quality)
        llm = SyntheticLLM(model, quality_model=quality_model)
        encoder = CacheGenEncoder(self.config, codec=codec)
        self._parts = _EngineComponents(
            llm=llm,
            compute=ComputeModel(model, gpu),
            encoder=encoder,
            decoder=CacheGenDecoder(encoder),
        )
        self._reference_cache: OrderedDict[tuple[str, int], KVCache] = OrderedDict()

        if node_links is None:
            links = [self.link]
        elif isinstance(node_links, int):
            links = [NetworkLink() for _ in range(node_links)]
        else:
            links = list(node_links)
        if not links:
            raise ValueError("node_links must name at least one node")
        hot_bytes, cold_bytes = max_bytes_per_node, cold_bytes_per_node
        if cold_bytes is not None and hot_bytes is None:
            raise ValueError(
                "a cold tier needs a bounded hot tier (set max_bytes_per_node)"
            )
        if tier_links is not None and len(tier_links) != len(links):
            raise ValueError("tier_links must name one link per node")

        def new_policy() -> EvictionPolicy:
            if isinstance(eviction_policy, str):
                return make_policy(eviction_policy)
            return eviction_policy()

        def new_store(tier_link: NetworkLink | None) -> KVCacheStore | TieredKVStore:
            hot = KVCacheStore(encoder, max_bytes=hot_bytes, eviction_policy=new_policy())
            if cold_bytes is None:
                return hot
            cold = DiskKVStore(max_bytes=cold_bytes, eviction_policy=new_policy(), link=tier_link)
            return TieredKVStore(
                hot, cold, placement=placement if isinstance(placement, str) else placement()
            )

        #: The sharded store every read and write goes through.
        self.cluster = ShardedKVStore(
            encoder,
            [
                StorageNode(
                    node_id=f"node-{i}",
                    store=new_store(tier_links[i] if tier_links is not None else None),
                    link=node_link,
                )
                for i, node_link in enumerate(links)
            ],
            replication_factor=replication_factor,
            vnodes=vnodes,
        )

    # ---------------------------------------------------------------- topology
    def stores(self) -> dict[str, KVCacheStore | TieredKVStore]:
        """Every bitstream store the engine reads, by node id (trace tracks are
        ``storage:<node id>``)."""
        return {node_id: node.store for node_id, node in self.cluster.nodes.items()}

    def tier_counters(self) -> TierState:
        return tier_state(self.cluster.nodes.values())

    def replace_link(self, link: NetworkLink) -> None:
        """Swap ``self.link`` for ``link`` everywhere it is in use: the text
        path and every node that serves over it."""
        for node in self.cluster.nodes.values():
            if node.link is self.link:
                node.link = link
        self.link = link

    def link_labels(self) -> dict[int, str]:
        """Trace-track names of the links requests may cross, by ``id(link)``."""
        labels = {id(self.link): "serving"}
        for node_id, node in self.cluster.nodes.items():
            labels[id(node.link)] = node_id
            tier_link = getattr(node.store, "tier_link", None)
            if tier_link is not None:
                labels[id(tier_link)] = f"tier:{node_id}"
        return labels

    # ------------------------------------------------------------------ access
    @property
    def llm(self) -> SyntheticLLM:
        return self._parts.llm

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
        """Prefill a context once, encode its KV cache and replicate the bitstreams.

        ``encode_delay_s`` is the *modeled* GPU encode time
        (:meth:`~repro.llm.compute_model.ComputeModel.encode_delay`), not a
        wall-clock measurement: ingest is part of the simulated world, and a
        host-time read here would leak nondeterminism into traces and reports.
        """
        placement = self.cluster.store_kv(context_id, self._reference_kv(context_id, num_tokens))
        stored = placement.stored
        return IngestReport(
            context_id=context_id,
            num_tokens=stored.num_tokens,
            num_chunks=stored.num_chunks,
            stored_bytes_per_level={
                level.name: stored.total_bytes(level.name) for level in self.config.levels
            },
            encode_delay_s=self._parts.compute.encode_delay(stored.num_tokens),
            replica_node_ids=placement.replica_node_ids,
            replicated_bytes=placement.replicated_bytes,
        )

    # ----------------------------------------------------------------- routing
    def resolve(self, request: ServeRequest) -> Resolution:
        """Route to the best live replica, else to text.

        ``request.num_tokens`` is only required for contexts the engine has
        never ingested; lengths of evicted contexts are remembered.
        """
        lookup = self.cluster.locate(request.context_id)
        num_tokens = request.num_tokens
        if lookup.found:
            node, stored = lookup.node, lookup.stored
            # A cold hit reads the bitstreams off the replica's disk tier
            # before the serving link sees the first byte — one serialized
            # tier-link transfer of the default level's bitstreams.
            tier_read_s = 0.0
            if lookup.cold_hit:
                tier_read_s = node.cold_read_delay_s(
                    stored.total_bytes(self.config.default_level.name)
                )
            if not self._prefer_text_path(
                stored.num_tokens,
                node.link,
                kv_extra_s=tier_read_s + lookup.extra_delay_s,
            ):
                return Resolution(
                    use_kv=True,
                    num_tokens=stored.num_tokens,
                    link=node.link,
                    stored=stored,
                    node=node,
                    failed_over=lookup.failed_over,
                    attempted=lookup.attempted_node_ids,
                    tier=lookup.tier,
                    degraded=lookup.degraded,
                    cause=lookup.cause if lookup.degraded else None,
                    retries=lookup.retries,
                    hedged=lookup.hedged,
                    extra_delay_s=lookup.extra_delay_s,
                    tier_read_s=tier_read_s,
                    level_override=lookup.level_override,
                )
            # Short context: the text path wins even though the replica holds
            # the cache — not a miss, the node just is not asked to serve.
            num_tokens = stored.num_tokens

        # A text fallback of a context the store once held is a *degraded*
        # answer (the short-context preference above is not: the text path
        # simply wins there).  The cause rides on the lookup.
        known_tokens = self.cluster.known_tokens(request.context_id)
        if num_tokens is None:
            num_tokens = known_tokens
        if num_tokens is None:
            raise ValueError(
                f"context {request.context_id!r} was never ingested here: "
                "its text fallback needs num_tokens"
            )
        degraded = known_tokens is not None and not lookup.found
        return Resolution(
            use_kv=False,
            num_tokens=num_tokens,
            link=self.link,
            attempted=lookup.attempted_node_ids,
            degraded=degraded,
            cause=(lookup.cause or "evicted") if degraded else None,
            retries=lookup.retries,
        )

    def _prefer_text_path(
        self, num_tokens: int, kv_link: NetworkLink, kv_extra_s: float = 0.0
    ) -> bool:
        """Short contexts load faster as text than as KV bitstreams (§7.3).

        The two paths may use different links (the KV bitstreams come from a
        storage node, the text from the document store).
        ``kv_extra_s`` charges the KV path for delays beyond the serving link
        — a cold-tier hit pays the node's tier link before streaming starts.
        """
        parts = self._parts
        text_bytes = num_tokens * self.config.text_bytes_per_token
        text_ttft = self.link.estimate_transfer_time(text_bytes) + parts.compute.prefill_delay(
            num_tokens
        )
        kv_bytes = self.model.kv_cache_bytes(num_tokens, bits_per_element=2.4)
        kv_ttft = (
            kv_link.estimate_transfer_time(kv_bytes)
            + parts.compute.decode_delay(num_tokens)
            + kv_extra_s
        )
        return text_ttft < kv_ttft

    def adaptation_policy(
        self, slo_s: float | None, level_override: str | None
    ) -> AdaptationPolicy:
        """The one policy choice of a KV read: pinned, SLO-aware, or default level."""
        # A degraded read pins the (cheaper) level the resilience layer chose
        # — adaptation would climb back to the level that just timed out.
        if level_override is not None:
            return FixedLevelPolicy(level_name=level_override)
        if slo_s is not None:
            return SLOAwareAdapter(level_names=[level.name for level in self.config.levels])
        return FixedLevelPolicy(level_name=self.config.default_level.name)

    def prompt_tokens(self, question: str) -> int:
        return max(self._parts.llm.tokenizer.count_tokens(question), 1)

    # ------------------------------------------------------------------- query
    def query(
        self,
        context_id: str,
        question: str,
        num_tokens: int | None = None,
        task: str = "qa_accuracy",
        slo_s: float | None = None,
    ) -> ServeResponse:
        """Answer a question against a context, loading its KV cache if stored.

        ``num_tokens`` is only required for contexts that were never ingested
        (the engine then falls back to the text path).
        """
        return self.serve(
            ServeRequest(context_id, question, num_tokens=num_tokens, task=task, slo_s=slo_s)
        )

    def serve(self, request: ServeRequest) -> ServeResponse:
        """One request alone on a fresh event simulation."""
        (response,) = serve_batch(self, [request], ConcurrentLoadSimulator())
        return response

    def respond(
        self, request: ServeRequest, resolution: Resolution, configs: Sequence[str], **timing
    ) -> ServeResponse:
        """The answer once the context arrived as ``configs``.

        ``timing`` is the executor's half of the response (``ttft``, bytes,
        arrival/finish, tier transfer); the routing half is ``resolution``'s.
        """
        if resolution.use_kv:
            generation = self._generate_from_stored(resolution.stored, configs, request.task)
        else:
            # Recomputing from text hands the model the lossless cache itself.
            generation = self._parts.llm.generate_with_kv(
                self._reference_kv(request.context_id, resolution.num_tokens),
                task=request.task,
            )
        return ServeResponse(
            context_id=request.context_id,
            question=request.question,
            text=generation.text,
            quality=generation.quality,
            used_kv_cache=resolution.use_kv,
            chunk_configs=configs,
            served_by=resolution.node.node_id if resolution.use_kv else None,
            failed_over=resolution.failed_over,
            attempted_node_ids=resolution.attempted,
            served_tier=resolution.tier,
            degraded=resolution.degraded,
            degrade_cause=resolution.cause,
            retries=resolution.retries,
            hedged=resolution.hedged,
            **timing,
        )
