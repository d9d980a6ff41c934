"""End-to-end context-loading engine (the §6 serving integration).

This is the component an application framework (the paper integrates with
LangChain) talks to, through :class:`~repro.serving.api.backends.Backend`,
which builds it from a :class:`~repro.serving.api.spec.ServingSpec` — the
engine's only constructor argument besides an injected codec profile:

* :meth:`ContextLoadingEngine.ingest` computes a context's KV cache
  (``calculate_kv``), encodes it at every level and stores the bitstreams
  (``store_kv``) with the error statistics reads are scored from; the
  tensor is not kept;
* :meth:`ContextLoadingEngine.resolve` decides, once per request, where it is
  served from — a :class:`Resolution`: stream the stored KV cache from which
  replica, or fall back to fetching the text and prefilling, and why.  The
  executor (:func:`~repro.serving.concurrent.engine.serve_batch`) plays the
  decision on the event engine, adapting the streamed levels to bandwidth
  and an optional TTFT SLO, and :meth:`ContextLoadingEngine.respond`
  answers from what arrived.

The bitstreams live in one :class:`~repro.cluster.sharded_store.ShardedKVStore`
(``engine.cluster``) however many storage nodes stand behind it: the paper's
single KV storage server is the one-node case, whose node serves over the
engine's own ``link``.  Ingests are encoded once and replicated onto the
store; when a replica is down the lookup fails over along the hash ring, and
when every replica has lost the context the engine falls back to the text
path, so a degraded store degrades TTFT, never availability.

The engine also follows §7.3's observation that for short contexts loading
the text can be faster than loading the KV cache: when the estimated
text-path TTFT is lower, it reverts to the text path even for stored
contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..cluster.node import StorageNode
from ..cluster.sharded_store import ShardedKVStore
from ..core.config import CacheGenConfig
from ..core.encoder import CacheGenEncoder, FittedCodec, _fit_fields
from ..llm.compute_model import ComputeModel
from ..llm.model_config import ModelConfig, get_model_config
from ..llm.quality import QualityModel
from ..llm.synthetic_model import GenerationResult, SyntheticLLM
from ..metrics.cluster import TierState, tier_state
from ..network.bandwidth import ConstantTrace, gbps
from ..network.link import NetworkLink
from ..storage.eviction import make_policy
from ..storage.kv_store import KVCacheStore, StoredContext
from ..storage.tiered import TieredKVStore
from ..streaming.adaptation import AdaptationPolicy, choose_policy
from .api.spec import ServingSpec, _require_servable
from .api.types import ServeRequest, ServeResponse
from .concurrent.processes import distortion
from .pipeline import IngestReport

__all__ = ["Resolution", "ContextLoadingEngine", "profile_codec"]

#: Number of synthetic sample contexts used to profile the encoder offline.
_PROFILE_SAMPLES = 2
_PROFILE_TOKENS = 1_500

#: Shipped default profiles as integer counts, one ``<model name>.npz`` a
#: model, written by ``scripts/build_profiles.py`` (the models the served
#: workloads and the experiments use).
_PROFILE_DIR = Path(__file__).with_name("profiles")

#: Every profile loaded or taken in this process, by resolved model and
#: ``_fit_fields``.  Unbounded: one entry per distinct key, and a run uses one
#: key per model and fit configuration.
_PROFILES: dict[tuple[ModelConfig, tuple], FittedCodec] = {}


def _constant_link(bandwidth_gbps: float) -> NetworkLink:
    return NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))


def _profile_key(model: ModelConfig, config: CacheGenConfig) -> str:
    """What a profile file must have been saved under to stand in for a fit."""
    return repr((model, _fit_fields(config), _PROFILE_SAMPLES, _PROFILE_TOKENS))


def _fit_profile(model: ModelConfig, config: CacheGenConfig) -> FittedCodec:
    """``model``'s profile taken afresh: two sample prefills, one table fit per level."""
    llm = SyntheticLLM(model)
    samples = [
        llm.calculate_kv(f"__profile-{i}", _PROFILE_TOKENS) for i in range(_PROFILE_SAMPLES)
    ]
    return CacheGenEncoder(config).fit(samples).codec


def profile_codec(model: ModelConfig | str, config: CacheGenConfig | None = None) -> FittedCodec:
    """``model``'s offline symbol-distribution profile, produced once per process.

    The profile depends only on the model's :class:`ModelConfig` and on the
    configuration fields :class:`~repro.core.encoder.FittedCodec` is keyed
    by, so it is memoized on exactly that: the first call for a key produces
    it, every later one returns the same immutable codec, whatever
    ``chunk_tokens``, default level or entropy-coding switches it passes.
    Every engine and backend built without ``codec=``, and every experiment
    ``Workbench``, shares it through here.

    The first call loads rather than fits when it can.  The default profiles
    of mistral-7b, llama-7b, llama-34b and llama-70b are committed as integer
    counts (``repro/serving/profiles/<model name>.npz``, written by
    ``scripts/build_profiles.py``); a file saved under the request's key —
    the resolved ``ModelConfig``, the fit fields and the sample recipe — is
    read in ≈15 ms and is, bit for bit, the codec a fit would produce.  Any
    other key (another model shape, ``group_size``, levels or ablation
    switch) is fitted: two 1500-token sample prefills and one table fit per
    level, ≈0.5 s.  An entry (0.9 MiB of integer counts when loaded, 5.8 MiB
    once its log-probability tables are scored) lives as long as the process.

    ``TypeError`` for a ``model`` that is neither a name nor a
    :class:`ModelConfig`, or a ``config`` that is neither ``None`` nor a
    :class:`CacheGenConfig`; ``ValueError`` for a profile file that cannot be
    read or holds a malformed field.

    Example
    -------
    >>> codec = profile_codec("mistral-7b")  # doctest: +SKIP
    >>> profile_codec("mistral-7b", CacheGenConfig(chunk_tokens=256)) is codec  # doctest: +SKIP
    True
    """
    if isinstance(model, str):
        model = get_model_config(model)
    elif not isinstance(model, ModelConfig):
        raise TypeError(
            f"model must be a model name or a ModelConfig, not {type(model).__name__}"
        )
    if config is None:
        config = CacheGenConfig()
    elif not isinstance(config, CacheGenConfig):
        raise TypeError(f"config must be a CacheGenConfig or None, not {type(config).__name__}")
    _require_servable(config)
    key = (model, _fit_fields(config))
    codec = _PROFILES.get(key)
    if codec is None:
        path = _PROFILE_DIR / f"{model.name}.npz"
        if path.exists():
            codec = FittedCodec.load(path, config, key=_profile_key(model, config))
        if codec is None:
            codec = _fit_profile(model, config)
        _PROFILES[key] = codec
    return codec


@dataclass
class _EngineComponents:
    llm: SyntheticLLM
    compute: ComputeModel
    encoder: CacheGenEncoder


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

    Built from a :class:`~repro.serving.api.spec.ServingSpec` and nothing
    else: the spec's model, codec configuration, GPU and quality overrides,
    and one storage node per ``num_nodes`` (hot store, plus a cold tier
    behind its own tier link when ``cold_bytes_per_node`` is set) on a ring
    with ``replication`` replicas.  The single topology's one node serves over
    the engine's own ``link``, so text and KV bytes share one channel; a
    cluster's nodes each have their own link and its text fallback reads a
    default 3 Gbps one.  :class:`~repro.serving.api.backends.Backend` builds
    it; requests reach it through the event executor, which calls
    :meth:`resolve` and :meth:`respond`.

    ``codec`` is the offline profile to encode with; when omitted, the
    process-wide one :func:`profile_codec` keeps for this model and
    configuration (loaded or profiled on first use).  ``ValueError`` if it
    was profiled for another model, model shape or codec configuration.

    Example
    -------
    >>> from repro.serving.api import ServingSpec, build_backend
    >>> spec = ServingSpec(topology="cluster", num_nodes=4, replication=2)
    >>> engine = build_backend(spec).engine  # doctest: +SKIP
    >>> sorted(engine.stores())  # doctest: +SKIP
    ['node-0', 'node-1', 'node-2', 'node-3']
    """

    def __init__(self, spec: ServingSpec, codec: FittedCodec | None = None) -> None:
        model = self.model = spec.resolved_model()
        config = self.config = spec.resolved_config()
        if codec is None:
            codec = profile_codec(model, config)
        else:
            codec.check(config, model)

        base_quality = dict(spec.base_quality) if spec.base_quality is not None else None
        quality_model = QualityModel(num_layers=model.sim_layers, base_values=base_quality)
        llm = SyntheticLLM(model, quality_model=quality_model)
        encoder = CacheGenEncoder(config, codec=codec)
        self._parts = _EngineComponents(
            llm=llm,
            compute=ComputeModel(model, spec.gpu),
            encoder=encoder,
        )

        if spec.topology == "single":
            # Text fallbacks and KV reads share the one serving link.
            self.link = _constant_link(spec.bandwidth_gbps)
            node_links = [self.link]
        else:
            self.link = NetworkLink()
            speeds = spec.node_bandwidths_gbps or (spec.bandwidth_gbps,) * spec.num_nodes
            node_links = [_constant_link(speed) for speed in speeds]

        def new_store() -> TieredKVStore:
            hot = KVCacheStore(
                encoder,
                max_bytes=spec.max_bytes_per_node,
                eviction_policy=make_policy(spec.eviction_policy),
            )
            cold = None
            if spec.cold_bytes_per_node is not None:
                cold = KVCacheStore(
                    None,
                    max_bytes=spec.cold_bytes_per_node,
                    eviction_policy=make_policy(spec.eviction_policy),
                )
            return TieredKVStore(
                hot,
                cold,
                placement=spec.placement,
                tier_link=_constant_link(spec.tier_bandwidth_gbps),
            )

        #: The sharded store every read and write goes through.
        self.cluster = ShardedKVStore(
            encoder,
            [
                StorageNode(node_id=f"node-{i}", store=new_store(), link=link)
                for i, link in enumerate(node_links)
            ],
            replication_factor=spec.replication,
        )

    # ---------------------------------------------------------------- topology
    def stores(self) -> dict[str, TieredKVStore]:
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
            labels[id(node.store.tier_link)] = f"tier:{node_id}"
        return labels

    # ------------------------------------------------------------------ access
    @property
    def llm(self) -> SyntheticLLM:
        return self._parts.llm

    @property
    def encoder(self) -> CacheGenEncoder:
        return self._parts.encoder

    @property
    def compute_model(self) -> ComputeModel:
        return self._parts.compute

    # ---------------------------------------------------------------- scoring
    def _generate_from_stored(
        self, stored: StoredContext, configs: Sequence[str], task: str
    ) -> GenerationResult:
        """Response to a read of ``stored`` whose chunks arrived as ``configs``.

        Scored from the record's error statistics, no tensor decoded.  The
        response is fixed by the record and the per-chunk configurations, so
        it is remembered on the record (see :attr:`StoredContext.generations`).
        """
        key = (tuple(configs), task)
        generation = stored.generations.get(key)
        if generation is None:
            generation = stored.generations[key] = self._parts.llm.generate(
                stored.num_tokens,
                distortion(stored.chunks, configs, stored.variance),
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
        placement = self.cluster.store_kv(
            context_id, self._parts.llm.calculate_kv(context_id, num_tokens)
        )
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
                tier_read_s = node.store.cold_read_delay_s(
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
        return choose_policy(
            [level.name for level in self.config.levels],
            slo_s,
            fixed_level=level_override or self.config.default_level.name,
            adaptive=level_override is None,
        )

    def prompt_tokens(self, question: str) -> int:
        return max(self._parts.llm.tokenizer.count_tokens(question), 1)

    # ----------------------------------------------------------------- respond
    def respond(
        self, request: ServeRequest, resolution: Resolution, configs: Sequence[str], **timing
    ) -> ServeResponse:
        """The answer once the context arrived as ``configs``.

        ``timing`` is the executor's half of the response (``ttft``, bytes,
        arrival/finish, loading, tier transfer); the routing half is
        ``resolution``'s.
        """
        if resolution.use_kv:
            generation = self._generate_from_stored(resolution.stored, configs, request.task)
        else:
            # Recomputing from text hands the model the lossless cache itself.
            generation = self._parts.llm.generate(resolution.num_tokens, task=request.task)
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
