"""Self-healing policies answering injected (or organic) faults.

The recovery machinery lives in one :class:`ResilienceManager` the cluster's
sharded store consults on every replica lookup:

* :class:`RetryPolicy` — a modeled per-attempt timeout with exponential
  backoff and *seeded* jitter.  A replica whose modeled service time exceeds
  the timeout counts as a failed attempt: the read pays the timeout plus the
  backoff and retries the next-best replica, until the attempt or time budget
  runs out — at which point the request **degrades** (cheapest codec level or
  text re-prefill) instead of failing;
* :class:`HedgePolicy` — hedged replica reads: when the chosen replica's
  modeled service exceeds the running p99 of observed services, a hedge is
  launched against the next replica after that delay and the faster one wins;
* :class:`BreakerPolicy` — a per-node circuit breaker that trips after
  consecutive failures, rejects routing to the node while open, and
  half-opens on a timer to probe recovery;
* background **re-replication** — an anti-entropy sweep at segment boundaries
  re-copies under-replicated contexts onto live nodes, FIFO-serialized per
  target link so repairs contend for real link time; a repaired replica
  becomes readable once its transfer has finished.

Everything is computed from modeled quantities on the simulated clock — the
same schedule, spec and seed replay to identical
:class:`ResilienceReport` objects.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

__all__ = [
    "RetryPolicy",
    "HedgePolicy",
    "BreakerPolicy",
    "ResiliencePolicy",
    "CircuitBreaker",
    "ReadOutcome",
    "FaultOutcome",
    "ResilienceReport",
    "ResilienceManager",
]

#: Bounded window of observed modeled service times feeding the hedge delay.
_SERVICE_WINDOW = 256


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + retry budget of a cluster read.

    An attempt whose modeled service time exceeds ``timeout_s`` is treated as
    failed: the read pays the timeout, backs off
    ``backoff_s * multiplier ** attempt`` (plus up to ``jitter`` of itself,
    drawn from a seeded RNG keyed on the context id so replays and reordered
    replays agree), and retries the next replica.  ``max_attempts`` and
    ``budget_s`` bound the loop; exhausting either degrades the request
    instead of failing it.

    Example
    -------
    >>> RetryPolicy(max_attempts=2, timeout_s=0.5).timeout_s
    0.5
    """

    max_attempts: int = 3
    timeout_s: float = 0.75
    backoff_s: float = 0.02
    multiplier: float = 2.0
    jitter: float = 0.5
    budget_s: float = 3.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget_s <= 0:
            raise ValueError("budget_s must be positive")


@dataclass(frozen=True)
class HedgePolicy:
    """Hedged replica reads after a quantile-derived delay.

    The hedge delay is the ``quantile`` of the modeled service times observed
    so far (``initial_delay_s`` until ``min_samples`` have been seen).  When
    the chosen replica's modeled service exceeds the delay and another
    replica holds the context, a hedge is launched after the delay; the
    faster path serves the request.

    Example
    -------
    >>> HedgePolicy(quantile=0.95).quantile
    0.95
    """

    quantile: float = 0.99
    min_samples: int = 16
    initial_delay_s: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.initial_delay_s < 0:
            raise ValueError("initial_delay_s must be non-negative")


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-node circuit breaker settings.

    Example
    -------
    >>> BreakerPolicy(failure_threshold=5).failure_threshold
    5
    """

    failure_threshold: int = 3
    reset_after_s: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.reset_after_s <= 0:
            raise ValueError("reset_after_s must be positive")


@dataclass(frozen=True)
class ResiliencePolicy:
    """The complete self-healing configuration of a serving spec.

    ``retry`` / ``hedge`` / ``breaker`` may each be ``None`` to disable that
    mechanism; ``repair`` enables background re-replication; ``degrade_level``
    names the codec level degraded requests drop to (``None`` picks the
    cheapest stored level per context).  ``seed`` feeds the retry jitter.

    Example
    -------
    >>> policy = ResiliencePolicy(hedge=None, seed=7)
    >>> policy.retry.max_attempts, policy.hedge
    (3, None)
    """

    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    hedge: HedgePolicy | None = field(default_factory=HedgePolicy)
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)
    repair: bool = True
    degrade_level: str | None = None
    seed: int = 0


# --------------------------------------------------------------------- breaker
class CircuitBreaker:
    """Classic closed -> open -> half-open breaker on the simulated clock."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s = 0.0
        self.trips = 0

    def allows(self, now_s: float) -> bool:
        """Whether a read may route to this node at ``now_s``.

        An open breaker rejects until ``reset_after_s`` has elapsed, then
        half-opens: the next read is the probe (success closes, failure
        reopens the window).
        """
        if self.state == self.OPEN:
            if now_s - self.opened_at_s >= self.policy.reset_after_s:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now_s: float) -> bool:
        """Count a failure; returns True when this one trips the breaker."""
        if self.state == self.HALF_OPEN:
            # The probe failed: straight back to open, timer restarted.
            self.state = self.OPEN
            self.opened_at_s = now_s
            return False
        self.consecutive_failures += 1
        if self.state == self.CLOSED and (
            self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = self.OPEN
            self.opened_at_s = now_s
            self.trips += 1
            return True
        return False


# --------------------------------------------------------------------- results
@dataclass(frozen=True)
class ReadOutcome:
    """What the retry/hedge evaluation decided for one replica read."""

    node_id: str
    extra_delay_s: float = 0.0
    retries: int = 0
    hedged: bool = False
    degraded: bool = False


@dataclass
class FaultOutcome:
    """Lifecycle of one injected fault, for MTTR accounting."""

    fault_id: str
    kind: str
    target: str
    injected_at_s: float
    cleared_at_s: float | None = None

    @property
    def mttr_s(self) -> float | None:
        """Time from injection to recovery (``None`` while still open)."""
        if self.cleared_at_s is None:
            return None
        return self.cleared_at_s - self.injected_at_s


@dataclass(frozen=True)
class ResilienceReport:
    """Resilience outcome of one run (rides on ``RunReport.resilience``).

    ``served`` counts every answered request, ``degraded`` the subset that
    was answered off the degraded path (text re-prefill of a known context,
    or a retry-exhausted read at a cheaper codec level).  Goodput is
    ``served - degraded``; availability counts any answer, because graceful
    degradation never leaves a request unserved unless admission shed it.

    Example
    -------
    >>> report = ResilienceReport(offered=10, served=8, degraded=2,
    ...                           shed=2, failed=0)
    >>> report.availability, report.goodput
    (1.0, 6)
    """

    offered: int
    served: int
    degraded: int
    shed: int
    failed: int
    retries: int = 0
    timeouts: int = 0
    hedged_reads: int = 0
    hedge_wins: int = 0
    breaker_trips: int = 0
    breaker_blocked: int = 0
    corruptions_detected: int = 0
    repairs_completed: int = 0
    repairs_failed: int = 0
    repair_bytes: float = 0.0
    faults: tuple[FaultOutcome, ...] = ()

    # ------------------------------------------------------------------ ratios
    @property
    def goodput(self) -> int:
        """Requests served at full fidelity (served minus degraded)."""
        return self.served - self.degraded

    @property
    def availability(self) -> float:
        """Fraction of non-shed offered requests that got an answer."""
        eligible = self.offered - self.shed
        return self.served / eligible if eligible > 0 else 1.0

    @property
    def degraded_ratio(self) -> float:
        return self.degraded / self.served if self.served else 0.0

    @property
    def mttr_s(self) -> dict[str, float]:
        """Recovery time per cleared fault, keyed by fault id."""
        return {
            fault.fault_id: fault.mttr_s
            for fault in self.faults
            if fault.mttr_s is not None
        }

    @property
    def mean_mttr_s(self) -> float | None:
        cleared = [fault.mttr_s for fault in self.faults if fault.mttr_s is not None]
        return sum(cleared) / len(cleared) if cleared else None

    # ------------------------------------------------------------------ output
    def format_table(self) -> str:
        """Human-readable resilience summary."""
        lines = [
            f"availability      {self.availability * 100.0:.1f}% "
            f"(goodput={self.goodput}, degraded={self.degraded}, "
            f"failed={self.failed}, shed={self.shed})",
            f"retries           {self.retries} "
            f"({self.timeouts} timeouts, {self.hedged_reads} hedged reads, "
            f"{self.hedge_wins} hedge wins)",
            f"breaker           {self.breaker_trips} trips, "
            f"{self.breaker_blocked} reads blocked",
            f"repair            {self.repairs_completed} replicas re-replicated "
            f"({self.repair_bytes / 1e6:.1f} MB, {self.repairs_failed} failed), "
            f"{self.corruptions_detected} corruptions detected",
        ]
        for fault in self.faults:
            recovered = (
                f"recovered in {fault.mttr_s:.2f}s"
                if fault.mttr_s is not None
                else "not recovered in-run"
            )
            lines.append(
                f"  {fault.fault_id:<9} {fault.kind:<10} {fault.target:<18} "
                f"injected {fault.injected_at_s:.2f}s, {recovered}"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------- manager
@dataclass
class _PendingRepair:
    finish_s: float
    node_id: str
    context_id: str
    target: object
    stored: object
    num_bytes: float


class ResilienceManager:
    """Run-scoped state of the self-healing layer.

    Attached to a :class:`~repro.cluster.sharded_store.ShardedKVStore` as its
    ``resilience`` hook; the store consults it during :meth:`locate` (breaker
    gating, corruption detection, retry/hedge evaluation) and the driver
    drives :meth:`sweep` at fault boundaries (repair commits + scheduling).
    ``policy=None`` builds a bare manager — fault bookkeeping only, no
    retry/hedge/breaker/repair — which is what a :class:`~repro.faults.
    schedule.FaultSchedule` without a spec-level policy gets.
    """

    def __init__(self, policy: ResiliencePolicy | None, seed: int | None = None) -> None:
        self.policy = policy
        self.seed = policy.seed if policy is not None else (seed or 0)
        #: Simulated "now" — maintained by the driver/backends at each arrival
        #: and fault boundary; breaker timers and repair queues key off it.
        self.now = 0.0
        self._breakers: dict[str, CircuitBreaker] = {}
        self._service_samples: list[float] = []
        #: context_id -> fault_id of an injected corruption (MTTR clearing).
        self._corruption_faults: dict[str, str] = {}
        #: context_id -> simulated time its corruption was detected on read.
        self.corruption_detected_at: dict[str, float] = {}
        #: fault_id -> simulated clear time, resolved through repair commits.
        self.repair_cleared: dict[str, float] = {}
        self._pending_repairs: list[_PendingRepair] = []
        self._repair_busy_until: dict[str, float] = {}
        self.last_repair_commit_s: float | None = None
        # Counters (all modeled — deterministic across replays).
        self.retries = 0
        self.timeouts = 0
        self.hedged_reads = 0
        self.hedge_wins = 0
        self.breaker_blocked = 0
        self.corruptions_detected = 0
        self.repairs_completed = 0
        self.repairs_failed = 0
        self.repair_bytes = 0.0

    def counters(self) -> dict[str, float]:
        """Snapshot of the run counters (keys match :class:`ResilienceReport`).

        The driver diffs a before/after pair so a reused manager (one spec,
        several :meth:`~repro.serving.api.driver.Driver.run` calls) reports
        per-run counts.
        """
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "hedged_reads": self.hedged_reads,
            "hedge_wins": self.hedge_wins,
            "breaker_trips": self.breaker_trips,
            "breaker_blocked": self.breaker_blocked,
            "corruptions_detected": self.corruptions_detected,
            "repairs_completed": self.repairs_completed,
            "repairs_failed": self.repairs_failed,
            "repair_bytes": self.repair_bytes,
        }

    # ----------------------------------------------------------------- breaker
    def _breaker(self, node_id: str) -> CircuitBreaker | None:
        if self.policy is None or self.policy.breaker is None:
            return None
        breaker = self._breakers.get(node_id)
        if breaker is None:
            breaker = self._breakers[node_id] = CircuitBreaker(self.policy.breaker)
        return breaker

    @property
    def breaker_trips(self) -> int:
        return sum(breaker.trips for breaker in self._breakers.values())

    def breaker_state(self, node_id: str) -> str:
        breaker = self._breakers.get(node_id)
        return breaker.state if breaker is not None else CircuitBreaker.CLOSED

    def node_allowed(self, node_id: str) -> bool:
        """Breaker gate consulted during replica lookup (counts rejections)."""
        breaker = self._breaker(node_id)
        if breaker is None:
            return True
        if not breaker.allows(self.now):
            self.breaker_blocked += 1
            return False
        return True

    # ---------------------------------------------------------------- read path
    @property
    def active(self) -> bool:
        """Whether the read path has any policy to evaluate."""
        return self.policy is not None and (
            self.policy.retry is not None or self.policy.hedge is not None
        )

    def _jitter(self, context_id: str, attempt: int) -> float:
        """Seeded, order-independent jitter draw in [0, 1).

        Keyed on (seed, context id, attempt) rather than a shared stream so
        a permuted-but-equivalent request order draws identical values —
        the event-order race detector depends on that.
        """
        key = zlib.crc32(context_id.encode("utf-8")) ^ (self.seed * 0x9E3779B1) ^ attempt
        return random.Random(key).random()

    def backoff_s(self, context_id: str, attempt: int) -> float:
        retry = self.policy.retry if self.policy is not None else None
        if retry is None:
            return 0.0
        base = retry.backoff_s * (retry.multiplier**attempt)
        return base * (1.0 + retry.jitter * self._jitter(context_id, attempt))

    def hedge_delay_s(self) -> float | None:
        hedge = self.policy.hedge if self.policy is not None else None
        if hedge is None:
            return None
        samples = self._service_samples
        if len(samples) < hedge.min_samples:
            return hedge.initial_delay_s
        ordered = sorted(samples)
        index = min(int(hedge.quantile * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def observe_service(self, service_s: float) -> None:
        self._service_samples.append(service_s)
        if len(self._service_samples) > _SERVICE_WINDOW:
            del self._service_samples[0]

    def evaluate_read(
        self,
        context_id: str,
        primary: str,
        service_s: float,
        alternates: list[tuple[str, float]],
    ) -> ReadOutcome:
        """Apply the retry and hedge policies to one modeled replica read.

        ``alternates`` lists the other live replicas (node id, modeled
        service) in increasing modeled-service order.  Returns which node
        serves, the extra delay charged into the request's TTFT, and whether
        the read degraded (retry budget exhausted against slow replicas).
        """
        retry = self.policy.retry if self.policy is not None else None
        chosen, chosen_service = primary, service_s
        extra = 0.0
        retries = 0
        degraded = False
        hedged = False
        if retry is not None and chosen_service > retry.timeout_s:
            remaining = list(alternates)
            attempt = 0
            while True:
                # The in-flight attempt timed out on the simulated clock.
                self.timeouts += 1
                breaker = self._breaker(chosen)
                if breaker is not None:
                    breaker.record_failure(self.now)
                extra += retry.timeout_s + self.backoff_s(context_id, attempt)
                attempt += 1
                if attempt >= retry.max_attempts or extra > retry.budget_s or not remaining:
                    # Budget exhausted: degrade rather than fail — the caller
                    # serves the fastest remaining replica at a cheaper codec
                    # level (or falls through to the text path).
                    degraded = True
                    break
                self.retries += 1
                retries += 1
                chosen, chosen_service = remaining.pop(0)
                if chosen_service <= retry.timeout_s:
                    break
        elif alternates:
            hedge_delay = self.hedge_delay_s()
            if hedge_delay is not None and service_s > hedge_delay:
                self.hedged_reads += 1
                hedged = True
                alt, alt_service = alternates[0]
                if hedge_delay + alt_service < service_s:
                    self.hedge_wins += 1
                    chosen, chosen_service = alt, alt_service
                    extra += hedge_delay
        breaker = self._breaker(chosen)
        if breaker is not None and not degraded:
            breaker.record_success()
        self.observe_service(chosen_service)
        return ReadOutcome(
            node_id=chosen,
            extra_delay_s=extra,
            retries=retries,
            hedged=hedged,
            degraded=degraded,
        )

    # -------------------------------------------------------------- corruption
    def register_corruption(self, context_id: str, fault_id: str) -> None:
        """Remember which injected fault a corrupted context belongs to."""
        self._corruption_faults[context_id] = fault_id

    def on_corruption_detected(self, node_id: str, context_id: str) -> None:
        """The store detected (and evicted) a corrupted replica."""
        self.corruptions_detected += 1
        self.corruption_detected_at.setdefault(context_id, self.now)
        breaker = self._breaker(node_id)
        if breaker is not None:
            breaker.record_failure(self.now)

    # ------------------------------------------------------------------ repair
    def sweep(self, cluster, now_s: float, tracer=None) -> None:
        """Anti-entropy pass: commit finished repairs, schedule new ones.

        Called by the driver at fault/topology boundaries and at end of run.
        Scheduling walks the under-replicated contexts in deterministic
        (sorted) order; each repair copies the already-encoded bitstreams
        from a surviving replica onto the next live node in ring order,
        FIFO-serialized per target node's link so repairs queue behind each
        other for real link time.  A repaired replica becomes readable at
        the first sweep after its transfer finishes.
        """
        self.now = max(self.now, now_s)
        self._commit_repairs(now_s, tracer)
        if self.policy is None or not self.policy.repair:
            return
        pending_contexts = {repair.context_id for repair in self._pending_repairs}
        for context_id in cluster.under_replicated():
            if context_id in pending_contexts:
                continue
            plan = cluster.plan_repair(context_id)
            if plan is None:
                continue
            target, stored = plan
            num_bytes = stored.total_bytes()
            start = max(now_s, self._repair_busy_until.get(target.node_id, 0.0))
            finish = start + target.link.estimate_transfer_time(num_bytes)
            self._repair_busy_until[target.node_id] = finish
            self._pending_repairs.append(
                _PendingRepair(
                    finish_s=finish,
                    node_id=target.node_id,
                    context_id=context_id,
                    target=target,
                    stored=stored,
                    num_bytes=num_bytes,
                )
            )

    def _commit_repairs(self, now_s: float, tracer=None) -> None:
        from ..storage.kv_store import CapacityError

        due = [repair for repair in self._pending_repairs if repair.finish_s <= now_s]
        if not due:
            return
        self._pending_repairs = [
            repair for repair in self._pending_repairs if repair.finish_s > now_s
        ]
        for repair in sorted(due, key=lambda r: (r.finish_s, r.node_id, r.context_id)):
            try:
                repair.target.store.store_prepared(repair.stored)
            except CapacityError:
                self.repairs_failed += 1
                continue
            self.repairs_completed += 1
            self.repair_bytes += repair.num_bytes
            self.last_repair_commit_s = repair.finish_s
            fault_id = self._corruption_faults.get(repair.context_id)
            if fault_id is not None:
                self.repair_cleared.setdefault(fault_id, repair.finish_s)
            if tracer is not None:
                tracer.instant(
                    "repair complete",
                    track="faults",
                    at_s=repair.finish_s,
                    category="fault",
                    context_id=repair.context_id,
                    node=repair.node_id,
                    bytes=repair.num_bytes,
                )

    @property
    def pending_repairs(self) -> int:
        return len(self._pending_repairs)

    def drain(self, cluster, now_s: float, tracer=None) -> None:
        """Run repair to completion after the arrival stream ends.

        Repairs in flight when the run drains still complete at their modeled
        finish times; follow-up sweeps re-replicate anything still lost until
        the cluster converges (or no further repair is possible).
        """
        self.sweep(cluster, now_s, tracer)
        for _ in range(64):  # converges in one pass per lost replica wave
            if not self._pending_repairs:
                break
            horizon = max(repair.finish_s for repair in self._pending_repairs)
            self._commit_repairs(horizon, tracer)
            self.sweep(cluster, horizon, tracer)
