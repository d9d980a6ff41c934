"""Reads are scored once per (stored record, decision vector, task) — exactly.

The serving engines remember the :class:`GenerationResult` of a read on the
stored record it was served from (``StoredContext.generations``).  Nothing in
production can switch that off, so the oracle lives here: every response of a
seeded stream is recomputed from scratch — prefill, encode, score the levels
its ``chunk_configs`` name from the fresh chunks' error statistics — and must
compare ``==`` on ``quality`` and ``text``.  The same response is also
recomputed the long way — decode, concatenate, diff against the lossless
reference — and must agree on ``text`` and, to float64 summation order, on
``quality``.  Next to the exactness column sits the work metric: distortion
evaluations performed vs responses served.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import replace
from unittest import mock

import pytest

from conftest import serve_one
import repro.serving.api.backends
from repro.core import CacheGenDecoder
from repro.faults import Corruption, FaultSchedule, ResiliencePolicy, RetryPolicy
from repro.serving.api import Driver, ServeRequest, ServingSpec, build_backend
from repro.serving.concurrent.processes import distortion, materialise
from repro.streaming import TEXT_CONFIG, prepare_chunks

BASE = ServingSpec(model="mistral-7b", chunk_tokens=128)
CLUSTER = replace(BASE, topology="cluster", num_nodes=2, replication=2)
#: Tight enough that the SLO adapter mixes encoding levels and text.
TIGHT_SLO_S = 0.05
#: Every read times out on every replica, so each one degrades to the
#: cheapest stored level (``level_override``) instead of failing.
ALWAYS_DEGRADE = ResiliencePolicy(
    retry=RetryPolicy(timeout_s=1e-3, backoff_s=0.0, max_attempts=2),
    hedge=None,
    breaker=None,
)
TOKENS = (160, 320, 480)


def _records(backend, requests):
    """Every resident stored record of the requests' contexts over all nodes
    and tiers, replicas once."""
    records = {}
    for store in backend.stores().values():
        for context_id in {request.context_id for request in requests}:
            if context_id in store:
                record = store.peek_context(context_id)
                records[id(record)] = record
    return list(records.values())


def _stream(num_requests: int, num_contexts: int, prefix: str) -> list[ServeRequest]:
    """A seeded stream re-reading a small catalogue, in bursts and lulls."""
    rng = random.Random(f"{prefix}/{num_requests}/{num_contexts}")
    requests, arrival_s = [], 0.0
    for i in range(num_requests):
        rank = rng.randrange(num_contexts)
        arrival_s += rng.choice((0.0, 0.01, 0.4))
        requests.append(
            ServeRequest(
                f"{prefix}-{rank:04d}",
                f"Question {i}?",
                arrival_s=arrival_s,
                num_tokens=TOKENS[rank % len(TOKENS)],
                task=rng.choice(("qa_accuracy", "qa_accuracy", "qa_f1")),
            )
        )
    return requests


def counting_evaluations():
    """Spy on the backend's read scoring: ``.call_count`` inside the block."""
    return mock.patch.object(repro.serving.api.backends, "distortion", side_effect=distortion)


def _drive(backend, requests, **driver_kwargs):
    """Serve the stream; returns (report, distortion evaluations performed)."""
    with counting_evaluations() as calls, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fault segment notice
        report = Driver(backend, requests, **driver_kwargs).run()
    assert report.hard_failures == 0 and report.shed == 0
    assert len(report.responses) == len(requests)
    return report, calls.call_count


class Oracle:
    """Recomputes a response's generation without the backend's memo."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.decoder = CacheGenDecoder(backend.encoder)
        self._contexts: dict[tuple[str, int], tuple] = {}

    def _context(self, context_id: str, num_tokens: int):
        key = (context_id, num_tokens)
        if key not in self._contexts:
            reference = self.backend.llm.calculate_kv(context_id, num_tokens)
            self._contexts[key] = reference, prepare_chunks(reference, self.backend.encoder)
        return self._contexts[key]

    def generation(self, request: ServeRequest, response):
        """``(from the statistics, from the tensors)`` generations of ``response``."""
        reference, chunks = self._context(request.context_id, request.num_tokens)
        llm, configs = self.backend.llm, response.chunk_configs
        if not response.used_kv_cache:
            assert configs == ["text"]
            # The lossless fallback is scored the long way too (a tensor diffed
            # against itself): it must equal a generation with no distortion.
            return (
                llm.generate(request.num_tokens, task=request.task),
                llm.generate_with_kv(reference, reference_kv=reference, task=request.task),
            )
        assert len(configs) == len(chunks)
        delivered = materialise(chunks, configs, self.decoder, reference)
        return (
            llm.generate(
                reference.num_tokens,
                distortion(chunks, configs, reference.variance_per_layer()),
                task=request.task,
            ),
            llm.generate_with_kv(delivered, reference_kv=reference, task=request.task),
        )

    def check(self, requests, responses) -> None:
        by_question = {request.question: request for request in requests}
        for response in responses:
            request = by_question[response.question]
            assert request.context_id == response.context_id
            expected, long_way = self.generation(request, response)
            assert response.quality == expected.quality
            assert response.text == expected.text == long_way.text
            for name in ("value", "relative_quality"):
                assert getattr(response.quality, name) == pytest.approx(
                    getattr(long_way.quality, name), rel=1e-12, abs=0
                )


def _distinct_reads(requests, responses) -> set:
    tasks = {request.question: request.task for request in requests}
    return {
        (r.context_id, tuple(r.chunk_configs), tasks[r.question])
        for r in responses
        if r.used_kv_cache
    }


DEFAULT_LEVEL = BASE.resolved_config().default_level.name
#: name -> (spec, the configs its KV reads must use; ``None`` = SLO-adapted mix).
ORACLE_SPECS = {
    "single-slo": (replace(BASE, slo_s=TIGHT_SLO_S), None),
    "concurrent-slo": (replace(BASE, concurrency=4, slo_s=TIGHT_SLO_S), None),
    "cluster-slo": (replace(CLUSTER, concurrency=4, slo_s=TIGHT_SLO_S), None),
    "single-fixed-level": (replace(BASE, adaptive=False), {DEFAULT_LEVEL}),
    "concurrent-fixed-level": (
        replace(BASE, concurrency=4, adaptive=False),
        {DEFAULT_LEVEL},
    ),
    "cluster-fixed-level": (
        replace(CLUSTER, concurrency=4, adaptive=False),
        {DEFAULT_LEVEL},
    ),
    "cluster-degraded": (
        replace(CLUSTER, concurrency=4, adaptive=False, resilience=ALWAYS_DEGRADE),
        {"lowest"},
    ),
    "cluster-default-degraded": (
        replace(CLUSTER, adaptive=False, resilience=ALWAYS_DEGRADE),
        {"lowest"},
    ),
}


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_every_response_equals_its_recomputation(name, fitted_codec):
    spec, expected_configs = ORACLE_SPECS[name]
    backend = build_backend(spec, codec=fitted_codec())
    requests = _stream(24, num_contexts=4, prefix=name)
    report, evaluations = _drive(backend, requests)

    Oracle(backend).check(requests, report.responses)

    kv_served = [r for r in report.responses if r.used_kv_cache]
    assert kv_served, "the shape must exercise the KV path"
    configs = {config for r in kv_served for config in r.chunk_configs}
    if expected_configs is None:
        assert configs - {TEXT_CONFIG}, "the SLO must force real decodes"
    else:
        assert configs == expected_configs
    assert all(r.degraded for r in kv_served) == (spec.resilience is ALWAYS_DEGRADE)
    # Work metric: one evaluation per distinct read, however many responses.
    distinct = _distinct_reads(requests, report.responses)
    print(f"{name}: {evaluations} evaluations for {len(report.responses)} responses")
    assert evaluations == len(distinct) < len(kv_served)
    assert sum(len(record.generations) for record in _records(backend, requests)) == len(distinct)


def test_text_fallback_needs_no_distortion_pass(fitted_codec):
    """Never-ingested contexts re-prefill from text: lossless, zero evaluations,
    and no KV cache computed to answer them."""
    backend = build_backend(replace(BASE, concurrency=4), codec=fitted_codec())
    requests = [
        ServeRequest("never-ingested", f"Question {i}?", 0.1 * i, num_tokens=320)
        for i in range(3)
    ]
    llm = backend.llm
    with counting_evaluations() as calls, mock.patch.object(
        llm, "calculate_kv", side_effect=llm.calculate_kv
    ) as prefills:
        responses = backend.run(requests)
        single = serve_one(
            backend, ServeRequest("never-ingested", "Question 3?", num_tokens=320)
        )
    assert calls.call_count == 0 and prefills.call_count == 0
    reference = backend.llm.calculate_kv("never-ingested", 320)
    expected = backend.llm.generate_with_kv(reference, reference_kv=reference)
    for response in [*responses, single]:
        assert not response.used_kv_cache
        assert response.quality == expected.quality
        assert response.text == expected.text


class TestMemoLifetime:
    """The memo is the record's: no invalidation code, so none to get wrong."""

    def test_reingest_starts_empty_and_hits_share_one_result(self, fitted_codec):
        backend = build_backend(replace(BASE, adaptive=False), codec=fitted_codec())
        backend.ingest("doc", 320)
        (store,) = backend.stores().values()
        first_record = store.peek_context("doc")
        assert first_record.generations == {}
        with counting_evaluations() as calls:
            first = serve_one(backend, ServeRequest("doc", "a?"))
            again = serve_one(backend, ServeRequest("doc", "b?"))
            other_task = serve_one(backend, ServeRequest("doc", "c?", task="qa_f1"))
        assert calls.call_count == 2
        assert again.quality is first.quality  # one shared, frozen result
        assert other_task.quality != first.quality
        assert len(first_record.generations) == 2

        store.evict("doc")
        backend.ingest("doc", 320)
        recreated = store.peek_context("doc")
        assert recreated is not first_record
        assert recreated.generations == {}
        with counting_evaluations() as calls:
            after = serve_one(backend, ServeRequest("doc", "d?"))
        assert calls.call_count == 1
        assert after.quality == first.quality
        assert len(first_record.generations) == 2  # the dead record is untouched

    def test_shared_generation_cannot_be_mutated(self, fitted_codec):
        backend = build_backend(replace(BASE, adaptive=False), codec=fitted_codec())
        backend.ingest("doc", 160)
        serve_one(backend, ServeRequest("doc", "a?"))
        (store,) = backend.stores().values()
        (generation,) = store.peek_context("doc").generations.values()
        with pytest.raises(AttributeError):
            generation.text = "tampered"
        with pytest.raises(AttributeError):
            generation.quality.value = 0.0

    def test_demotion_and_promotion_keep_the_records_memo(self, fitted_codec):
        spec = replace(
            BASE, topology="tiered", num_nodes=1, replication=1, adaptive=False,
            max_bytes_per_node=30e6, cold_bytes_per_node=200e6,
        )
        backend = build_backend(spec, codec=fitted_codec())
        store = backend.cluster.nodes["node-0"].store
        backend.ingest("victim", 320)
        record = store.peek_context("victim")
        first = serve_one(backend, ServeRequest("victim", "a?"))
        assert first.used_kv_cache and len(record.generations) == 1

        for i in range(3):  # push the victim out of the hot tier
            backend.ingest(f"filler-{i}", 320)
        store.flush_demotions()
        assert store.tier_of("victim") == "cold"
        assert store.peek_context("victim") is record
        assert len(record.generations) == 1

        with counting_evaluations() as calls:
            cold_hit = serve_one(backend, ServeRequest("victim", "b?"))
        assert cold_hit.served_tier == "cold" and calls.call_count == 0
        assert cold_hit.quality is first.quality
        assert store.tier_of("victim") == "hot"  # promoted by the read
        assert store.peek_context("victim") is record

    def test_ingest_churn_shape_then_oracle(self, fitted_codec):
        """Hot eviction -> demotion -> cold eviction -> re-ingest, then check."""
        spec = replace(
            BASE, topology="tiered", num_nodes=1, replication=1, concurrency=4,
            slo_s=TIGHT_SLO_S, max_bytes_per_node=60e6, cold_bytes_per_node=120e6,
            placement="cost", eviction_policy="cost",
        )
        lags = (0, 2, 8, 20)  # the benchmark's fixed first-touch / re-read order
        ranks = [
            i // 2 if i % 2 == 0 else max(i // 2 - lags[(i // 2) % len(lags)], 0)
            for i in range(32)
        ]
        requests = [
            ServeRequest(
                f"churn-{rank:04d}", f"Question {i}?", arrival_s=0.5 * i,
                num_tokens=TOKENS[rank % len(TOKENS)],
            )
            for i, rank in enumerate(ranks)
        ]
        backend = build_backend(spec, codec=fitted_codec())
        report, _ = _drive(backend, requests)
        assert report.demotions > 0 and report.promotions > 0
        assert report.total_evictions > 0  # cold evictions: records really die
        assert report.ingests > len(set(ranks))  # ... and are created again

        Oracle(backend).check(requests, report.responses)
        self._check_bounded(backend, requests, report.responses)

    def test_corruption_and_repair_then_oracle(self, fitted_codec):
        spec = replace(
            BASE, topology="cluster", num_nodes=3, replication=2, concurrency=4,
            slo_s=TIGHT_SLO_S, resilience=ResiliencePolicy(),
        )
        requests = _stream(24, num_contexts=3, prefix="heal")
        hottest = requests[0].context_id
        faults = FaultSchedule([Corruption(hottest, at_s=2.0)])
        backend = build_backend(spec, codec=fitted_codec())
        report, evaluations = _drive(backend, requests, faults=faults)
        assert report.resilience.corruptions_detected == 1
        assert report.resilience.repairs_completed >= 1

        Oracle(backend).check(requests, report.responses)
        self._check_bounded(backend, requests, report.responses)
        # Repair ships the surviving replica's record, memo and all: the
        # replicas of one ingest stay one object, scored once between them.
        replicas = [
            store.peek_context(hottest)
            for store in backend.stores().values()
            if hottest in store
        ]
        assert len(replicas) == 2 and replicas[0] is replicas[1]
        assert evaluations == len(_distinct_reads(requests, report.responses))

    @staticmethod
    def _check_bounded(backend, requests, responses) -> None:
        """Entries per record never exceed its distinct decision vectors."""
        observed: dict[str, set] = {}
        for context_id, configs, task in _distinct_reads(requests, responses):
            observed.setdefault(context_id, set()).add((configs, task))
        for record in _records(backend, requests):
            assert set(record.generations) <= observed.get(record.context_id, set())
