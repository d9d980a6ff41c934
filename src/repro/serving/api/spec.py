"""The declarative serving specification.

A :class:`ServingSpec` is the single description of *what to serve with*:
model, codec levels, store topology (single node / tiered nodes / cluster),
node count and replication, tier sizes and link speeds, batching, admission
limits and the GPU fleet.  It is frozen and fully validated at construction,
and it is the only thing :class:`~repro.serving.api.backends.Backend`
is built from, so a spec that constructs is a deployment that builds and
serves: the error surface lives here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ...core.config import CacheGenConfig
from ...llm.compute_model import A40, GPUSpec
from ...llm.model_config import ModelConfig, get_model_config
from ...storage.eviction import POLICIES
from ...storage.tiered import PLACEMENTS
from ..fleet.autoscale import AutoscaleSpec
from ..fleet.dispatch import DISPATCH_POLICIES
from .types import _require_count, _require_finite

__all__ = ["ServingSpec", "TOPOLOGIES", "EVICTION_POLICIES", "PLACEMENT_POLICIES"]


def _require_servable(config: CacheGenConfig) -> None:
    """``ValueError`` for a codec configuration no served context can be coded under."""
    if config.probability_grouping == "token":
        raise ValueError(
            'probability_grouping="token" cannot serve: a per-token-position model needs '
            "every tensor to have the profile's token count, and contexts and chunks vary "
            "in length; it exists for the Figure 5 grouping-entropy analysis only"
        )

#: Store topologies a spec can declare.
TOPOLOGIES = ("single", "tiered", "cluster")
#: Known eviction-policy names (the keys of :data:`repro.storage.eviction.POLICIES`).
EVICTION_POLICIES = tuple(POLICIES)
#: Known tier-placement names (the keys of :data:`repro.storage.tiered.PLACEMENTS`).
PLACEMENT_POLICIES = tuple(PLACEMENTS)


@dataclass(frozen=True)
class ServingSpec:
    """Declarative description of a serving deployment.

    Parameters
    ----------
    model:
        Serving model name (or a :class:`~repro.llm.model_config.ModelConfig`),
        resolved at construction (:meth:`resolved_model`).
    topology:
        ``"single"`` — one node, one store, one link;
        ``"tiered"`` — a cluster whose nodes each run a hot tier over a cold
        (disk/object-store) tier behind a tier link;
        ``"cluster"`` — a sharded, replicated cluster of single-tier nodes.
    num_nodes / replication:
        Cluster shape (must be 1/1 for the single topology).
    max_bytes_per_node / cold_bytes_per_node:
        Per-node tier capacities.  The tiered topology requires both: a cold
        tier only demotes from a *bounded* hot tier.
    eviction_policy / placement:
        Policy names; validated against the known registries.
    chunk_tokens / levels / default_level / config:
        Codec settings.  ``levels`` restricts the configured encoding levels
        to the named subset (order preserved); ``config`` supplies a full
        :class:`~repro.core.config.CacheGenConfig` the conveniences refine.
    bandwidth_gbps / node_bandwidths_gbps / tier_bandwidth_gbps:
        Link speeds: the serving link (or one per node for heterogeneous
        clusters) and the per-node tier link.  The single topology's text
        fallback shares its serving link; a cluster's document store sits
        behind a default 3 Gbps link.
    concurrency:
        Declared, selects nothing: every request is played on the event
        engine, where queueing emerges from the shared links and GPU run
        queue.  Removal waits for the benchmark-only PR
        (``benchmarks/perf/workloads.py`` passes it).
    max_decode_batch / batch_overhead:
        Continuous-batching settings of the event-driven engine.
    admission_limit:
        Cap on requests in flight inside the event engine (excess arrivals
        queue FIFO).  Load *shedding* policies are pluggable on the driver.
    gpu_workers:
        GPU workers behind the event engine's compute stage.  ``1`` (the
        default) keeps the original single-scheduler path bit-for-bit;
        ``> 1`` builds a :class:`~repro.serving.fleet.pool.GpuWorkerPool`.
    dispatch_policy:
        How fleet tasks are routed to workers: ``"least-loaded"``,
        ``"locality"`` (same-context decodes co-batch on one worker), or
        ``"sticky"`` (chat sessions pin to a worker).
    autoscale:
        Optional :class:`~repro.serving.fleet.autoscale.AutoscaleSpec`; the
        pool then grows on queue-depth buildup and shrinks after sustained
        idle, with warm-up modeled in simulated time.
    slo_s / adaptive:
        TTFT SLO reported on runs; ``adaptive`` hands it to each query so the
        streamer's SLO-aware adapter can degrade encoding levels.
    resilience:
        Optional :class:`~repro.faults.ResiliencePolicy` enabling the
        self-healing layer on cluster reads: retries with seeded-jitter
        backoff, hedged replica reads, per-node circuit breakers, background
        re-replication, graceful degradation.  Cluster topologies only (a
        single node has no replicas to retry against); ``None`` (the
        default) keeps the fault-free fast path byte-identical.
    base_quality:
        Optional per-task lossless quality overrides of the quality surrogate.

    Example
    -------
    >>> spec = ServingSpec(
    ...     topology="cluster", num_nodes=4, replication=2,
    ...     gpu_workers=2, dispatch_policy="locality",
    ... )
    >>> spec.gpu_workers
    2
    """

    model: object = "mistral-7b"
    topology: str = "single"
    num_nodes: int = 1
    replication: int = 1
    max_bytes_per_node: float | None = None
    cold_bytes_per_node: float | None = None
    eviction_policy: str = "lru"
    placement: str = "hot"
    chunk_tokens: int | None = None
    levels: tuple[str, ...] | None = None
    default_level: str | None = None
    config: CacheGenConfig | None = None
    bandwidth_gbps: float = 3.0
    node_bandwidths_gbps: tuple[float, ...] | None = None
    tier_bandwidth_gbps: float = 1.0
    concurrency: int = 1
    max_decode_batch: int = 16
    batch_overhead: float = 0.2
    admission_limit: int | None = None
    gpu_workers: int = 1
    dispatch_policy: str = "least-loaded"
    autoscale: AutoscaleSpec | None = None
    slo_s: float | None = None
    adaptive: bool = True
    gpu: GPUSpec = A40
    base_quality: Mapping[str, float] | None = None
    resilience: object | None = None

    # -------------------------------------------------------------- validation
    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        for name in ("num_nodes", "replication", "concurrency", "max_decode_batch", "gpu_workers"):
            _require_count(name, getattr(self, name))
        for name in ("chunk_tokens", "admission_limit"):
            _require_count(name, getattr(self, name), optional=True)
        for name in ("bandwidth_gbps", "tier_bandwidth_gbps"):
            _require_finite(name, getattr(self, name))
        for name in ("max_bytes_per_node", "cold_bytes_per_node", "slo_s"):
            _require_finite(name, getattr(self, name), optional=True)
        _require_finite("batch_overhead", self.batch_overhead, allow_zero=True)
        if self.replication > self.num_nodes:
            raise ValueError(
                f"replication={self.replication} exceeds num_nodes={self.num_nodes}"
            )
        if self.topology == "single" and (self.num_nodes != 1 or self.replication != 1):
            raise ValueError("the single topology has exactly one node, one replica")
        if self.eviction_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction_policy!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"expected one of {PLACEMENT_POLICIES}"
            )
        if self.cold_bytes_per_node is not None:
            if self.max_bytes_per_node is None:
                raise ValueError(
                    "a cold tier demotes from a bounded hot tier: "
                    "cold_bytes_per_node requires max_bytes_per_node"
                )
            if self.topology == "single":
                raise ValueError(
                    "the single topology has no tier link; use topology='tiered'"
                )
        if self.topology == "tiered" and self.cold_bytes_per_node is None:
            raise ValueError(
                "the tiered topology needs a cold tier (set cold_bytes_per_node)"
            )
        if self.node_bandwidths_gbps is not None:
            if len(self.node_bandwidths_gbps) != self.num_nodes:
                raise ValueError("node_bandwidths_gbps must name one speed per node")
            for speed in self.node_bandwidths_gbps:
                _require_finite("node_bandwidths_gbps", speed)
        if self.dispatch_policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {self.dispatch_policy!r}; "
                f"expected one of {DISPATCH_POLICIES}"
            )
        if self.autoscale is not None and not (
            self.autoscale.min_workers <= self.gpu_workers <= self.autoscale.max_workers
        ):
            raise ValueError(
                f"gpu_workers={self.gpu_workers} outside the autoscale bounds "
                f"[{self.autoscale.min_workers}, {self.autoscale.max_workers}]"
            )
        if self.resilience is not None:
            from ...faults.resilience import ResiliencePolicy

            if not isinstance(self.resilience, ResiliencePolicy):
                raise TypeError("resilience must be a ResiliencePolicy (or None)")
            if self.topology == "single":
                raise ValueError(
                    "resilience policies act on cluster replica reads; "
                    "the single topology has no replicas to retry against"
                )
        # The model and the codec levels are validated by resolving them once.
        self.resolved_model()
        _require_servable(self.resolved_config())

    # ------------------------------------------------------------------- model
    def resolved_model(self) -> ModelConfig:
        """The :class:`~repro.llm.model_config.ModelConfig` ``model`` names."""
        if isinstance(self.model, ModelConfig):
            return self.model
        if not isinstance(self.model, str):
            raise TypeError(
                f"model must be a model name or a ModelConfig, not {type(self.model).__name__}"
            )
        try:
            return get_model_config(self.model)
        except KeyError as error:
            raise ValueError(error.args[0]) from None

    # ------------------------------------------------------------------- codec
    def resolved_config(self) -> CacheGenConfig:
        """The codec configuration this spec declares.

        Starts from ``config`` (or the paper defaults), then applies the
        ``chunk_tokens`` / ``levels`` / ``default_level`` conveniences.
        """
        config = self.config or CacheGenConfig()
        if self.chunk_tokens is not None:
            config = config.replace(chunk_tokens=self.chunk_tokens)
        if self.levels is not None:
            if not self.levels:
                raise ValueError("levels must name at least one encoding level")
            known = {level.name: level for level in config.levels}
            unknown = [name for name in self.levels if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown encoding level(s) {unknown}; configured: {sorted(known)}"
                )
            chosen = tuple(known[name] for name in self.levels)
            names = [level.name for level in chosen]
            keep = (
                config.default_level.name
                if config.default_level.name in names
                else names[0]
            )
            config = config.replace(levels=chosen, default_level_index=names.index(keep))
        if self.default_level is not None:
            names = [level.name for level in config.levels]
            if self.default_level not in names:
                raise ValueError(
                    f"unknown default level {self.default_level!r}; configured: {names}"
                )
            config = config.replace(default_level_index=names.index(self.default_level))
        return config
