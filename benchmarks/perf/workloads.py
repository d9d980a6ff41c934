"""The four workloads: inputs from a seed, one timed region, checked outputs.

Every workload is a closed loop of one caller in host time.  Constructing a
workload is its set-up (``repro`` is imported here, not at module level, so a
child's ``setup_s`` covers the imports); :meth:`warm_up` runs one tiny op so
lazy imports are done; :meth:`run` is the timed region and returns an
:class:`Outcome`; :meth:`verify` checks outputs after the clock has stopped.

Sizes are linear in ``seconds`` — the timed seconds one child should take at
the seed commit on the 2-core reference box — so the work done, and with it
every count and digest, is a function of ``(seed, seconds)`` alone.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

MODEL = "mistral-7b"
ARRIVAL_RATE_PER_S = 2.0


@dataclass
class Outcome:
    """What one timed region did, and what came out of it."""

    attempted: int
    failed: int
    #: sha256 over the outputs; equal seeds and sizes must give equal digests.
    digest: str
    #: Per-layer outputs read off the results (counts and simulated figures).
    outputs: dict[str, float] = field(default_factory=dict)


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class CodecExact:
    """Encode then decode one KV through the real arithmetic coder, all levels."""

    name = "codec-exact"
    op = "symbol encoded or decoded"
    why = (
        "the only workload whose time is the arithmetic coder's per-symbol Python loop; "
        "a codec fast path should move this one and no other"
    )
    #: Context tokens one timed second codes (encode + decode, four levels).
    TOKENS_PER_SECOND = 16.0
    SAMPLE_TOKENS = 256

    def __init__(self, seed: int, seconds: float, scratch: Path) -> None:
        from repro.core import CacheGenConfig, CacheGenDecoder, CacheGenEncoder
        from repro.llm import SyntheticLLM

        self.chunk_tokens = max(4, round(self.TOKENS_PER_SECOND * seconds / 2))
        self.config = CacheGenConfig(
            chunk_tokens=self.chunk_tokens, exact_entropy_coding=True
        )
        llm = SyntheticLLM(MODEL)
        self.samples = [
            llm.calculate_kv(f"s{seed}-sample-{i}", self.SAMPLE_TOKENS) for i in range(2)
        ]
        self.encoder = CacheGenEncoder(self.config).fit(self.samples)
        self.decoder = CacheGenDecoder(self.encoder)
        self.tiny = llm.calculate_kv(f"s{seed}-warm-up", 4)
        kv = llm.calculate_kv(f"s{seed}-codec", 2 * self.chunk_tokens)
        self.chunks = kv.split_tokens(self.chunk_tokens)
        self.inputs_sha256 = _sha256(
            tensor.tobytes() for chunk in self.chunks for tensor in (chunk.k, chunk.v)
        )
        self._coded: list = []

    def configuration(self) -> dict[str, object]:
        return {
            "model": MODEL,
            "codec": f"chunk_tokens={self.chunk_tokens}, exact_entropy_coding=True, "
            f"levels={[level.name for level in self.config.levels]}",
            "fit": f"2 sample caches of {self.SAMPLE_TOKENS} tokens",
            "input": f"one {2 * self.chunk_tokens}-token KV in {len(self.chunks)} chunks",
            "loop": "closed, one caller; op = " + self.op,
        }

    def warm_up(self) -> None:
        self.decoder.decode(self.encoder.encode(self.tiny, "lowest"))

    def run(self) -> Outcome:
        coded = self._coded = [
            (level.name, chunk, encoded, self.decoder.decode(encoded))
            for level in self.config.levels
            for chunk in self.chunks
            for encoded in (self.encoder.encode(chunk, level),)
        ]
        symbols = 0
        raw_bytes = dict.fromkeys((level.name for level in self.config.levels), 0.0)
        stream_bytes = dict(raw_bytes)
        bitstreams = []
        for level_name, chunk, encoded, _ in coded:
            raw_bytes[level_name] += chunk.nbytes
            stream_bytes[level_name] += encoded.payload_bits / 8.0
            for stream in (encoded.k_stream, encoded.v_stream):
                for payload in (stream.delta_payload, stream.anchor_payload):
                    symbols += math.prod(payload.shape)
                    bitstreams.append(payload.data)
        outputs = {
            f"core.compression_ratio.{name}": raw_bytes[name] / stream_bytes[name]
            for name in raw_bytes
        }
        self._exact_bytes = sum(stream_bytes.values())
        # Every symbol is coded twice: once into the bitstream, once out of it.
        return Outcome(
            attempted=2 * symbols, failed=0, digest=_sha256(bitstreams), outputs=outputs
        )

    def verify(self, outcome: Outcome) -> None:
        """Compare against the estimated-entropy path, which carries the
        quantized symbols verbatim: the reconstructions are equal exactly when
        every symbol tensor survived the arithmetic coder."""
        import numpy as np

        from repro.core import CacheGenDecoder, CacheGenEncoder

        reference = CacheGenEncoder(
            self.config.replace(exact_entropy_coding=False)
        ).fit(self.samples)
        reference_decoder = CacheGenDecoder(reference)
        mismatches = 0
        estimated_bytes = 0.0
        for level_name, chunk, encoded, decoded in self._coded:
            expected = reference.encode(chunk, level_name)
            estimated_bytes += expected.payload_bits / 8.0
            lossless = reference_decoder.decode(expected)
            for got, want, stream in (
                (decoded.k, lossless.k, encoded.k_stream),
                (decoded.v, lossless.v, encoded.v_stream),
            ):
                if not np.array_equal(got, want):
                    mismatches += 1
                    outcome.failed += 2 * sum(
                        math.prod(payload.shape)
                        for payload in (stream.delta_payload, stream.anchor_payload)
                    )
        outcome.outputs["core.roundtrip_mismatches"] = mismatches
        outcome.outputs["core.exact_over_estimated_bytes"] = (
            self._exact_bytes / estimated_bytes
        )


class _Serving:
    """A request stream driven through one freshly built backend."""

    op = "request"
    #: Requests one timed second serves at the seed commit.
    REQUESTS_PER_SECOND: float
    MIN_REQUESTS = 8
    #: Context length by popularity rank (cycled).  Fixed rather than drawn:
    #: one 320-vs-640 draw on the hottest context moves throughput by a third,
    #: more than any bound, so the seed varies ids, tensors and order only.
    TOKENS_BY_RANK: tuple[int, ...]
    zipf_alpha: float

    def __init__(self, seed: int, seconds: float, scratch: Path) -> None:
        from repro.cluster import WorkloadGenerator
        from repro.serving.api import ServeRequest, build_backend

        self.scratch = scratch
        self.num_requests = max(
            self.MIN_REQUESTS, round(self.REQUESTS_PER_SECOND * seconds)
        )
        self.num_contexts = self.contexts_for(self.num_requests)
        self.spec = self.make_spec()
        generator = WorkloadGenerator(
            num_contexts=self.num_contexts,
            zipf_alpha=self.zipf_alpha,
            arrival_rate_per_s=ARRIVAL_RATE_PER_S,
            token_choices=self.TOKENS_BY_RANK,
            seed=seed,
            context_prefix=f"s{seed}",
        )
        drawn = generator.generate(self.num_requests)
        lengths = self.TOKENS_BY_RANK
        self.requests = [
            ServeRequest(
                context_id=generator.context_id(rank),
                question=f"Question {request.index} about {generator.context_id(rank)}?",
                arrival_s=request.arrival_s,
                num_tokens=lengths[rank % len(lengths)],
            )
            for request, rank in zip(drawn, self.context_ranks(drawn))
        ]
        self.inputs_sha256 = _sha256(
            (r.context_id, r.question, r.arrival_s, r.num_tokens) for r in self.requests
        )
        self.backend = build_backend(self.spec)

    def context_ranks(self, drawn) -> list[int]:
        """Which context each request reads: by default the generator's Zipf draw."""
        return [int(request.context_id.rsplit("-", 1)[1]) for request in drawn]

    def contexts_for(self, num_requests: int) -> int:
        raise NotImplementedError

    def make_spec(self):
        raise NotImplementedError

    def configuration(self) -> dict[str, object]:
        spec = self.spec
        return {
            "model": MODEL,
            "spec": f"topology={spec.topology}, num_nodes={spec.num_nodes}, "
            f"replication={spec.replication}, concurrency={spec.concurrency}, "
            f"gpu_workers={spec.gpu_workers}, dispatch_policy={spec.dispatch_policy}, "
            f"chunk_tokens={spec.chunk_tokens}, slo_s={spec.slo_s}, "
            f"max_bytes_per_node={spec.max_bytes_per_node}, "
            f"cold_bytes_per_node={spec.cold_bytes_per_node}, "
            f"resilience={'on' if spec.resilience is not None else 'off'}",
            "stream": f"{self.num_requests} requests over {self.num_contexts} contexts, "
            f"{self.order}, tokens by rank={self.TOKENS_BY_RANK}, "
            f"simulated Poisson arrivals at {ARRIVAL_RATE_PER_S} req/s (open loop)",
            "loop": "closed in host time, one caller; op = " + self.op,
        }

    @property
    def order(self) -> str:
        return f"order drawn with zipf_alpha={self.zipf_alpha}"

    def drive(self, backend, requests):
        """Serve ``requests`` on ``backend`` and return the run report."""
        from repro.serving.api import Driver

        return Driver(backend, requests, simcheck=False).run()

    def warm_up(self) -> None:
        from repro.serving.api import ServeRequest, build_backend

        self.drive(
            build_backend(self.spec),
            [
                ServeRequest("warm-up-0000", "?", arrival_s=0.5 * (i + 1), num_tokens=320)
                for i in range(4)
            ],
        )

    def run(self) -> Outcome:
        report = self.drive(self.backend, self.requests)
        offered = len(self.requests)
        served = len(report.responses)
        tracer = report.telemetry
        simcheck = report.simcheck
        resilience = report.resilience
        outputs = {
            "storage.evictions": report.total_evictions,
            "storage.demotions": report.demotions,
            "storage.promotions": report.promotions,
            "storage.hot_hit_ratio": report.hot_hit_ratio,
            "cluster.failovers": report.failovers,
            "serving.api.sim_ttft_p50_s": report.ttft.p50_s,
            "serving.api.sim_ttft_p95_s": report.ttft.p95_s,
            "serving.api.sim_queueing_p95_s": report.queueing.p95_s if report.queueing else 0.0,
            "serving.api.sim_hit_ratio": report.hit_ratio,
            "serving.api.sim_bytes_moved": report.bytes_moved,
            "serving.api.sim_degraded": report.degraded,
            "serving.api.sim_segments": len(report.segment_boundaries) + 1,
            "telemetry.spans_recorded": len(tracer.spans) if tracer is not None else 0,
            "simcheck.violations": len(simcheck.violations) if simcheck else 0,
            "simcheck.past_schedules": simcheck.past_schedules if simcheck else 0,
            "faults.retries": resilience.retries if resilience else 0,
            "faults.hedges": resilience.hedged_reads if resilience else 0,
            "faults.repairs": resilience.repairs_completed if resilience else 0,
        }
        # A request counts as failed unless it was answered or shed on purpose:
        # that covers hard failures, unserved requests and availability < 1.
        failed = offered - report.shed - served
        responses = [
            (r.context_id, r.ttft_s, r.transmitted_bytes, tuple(r.chunk_configs))
            for r in report.responses
        ]
        digest = _sha256([*responses, sorted(outputs.items()), report.shed, failed])
        return Outcome(attempted=offered, failed=failed, digest=digest, outputs=outputs)

    def verify(self, outcome: Outcome) -> None:
        pass


class IngestChurn(_Serving):
    """One tiered node under hot and cold capacity pressure, mostly writes.

    One node, not two: ring placement follows the context ids, which carry the
    seed, so with two nodes the number of cold evictions — and with it peak RSS
    — differed by 5 % from seed to seed.
    """

    name = "ingest-churn"
    why = (
        "the write path: over half the requests are first-touch or re-ingests, so "
        "encode, placement, eviction, demotion and promotion do the work; a read-side "
        "gain paid for by slower ingest shows here"
    )
    REQUESTS_PER_SECOND = 11.0
    TOKENS_BY_RANK = (160, 320, 480)
    zipf_alpha = 0.0  # unused: the order is the fixed pattern of context_ranks
    #: How many first touches back a re-read reaches, cycled: the context just
    #: written (hot), a recent one (hot or demoted), older ones (cold, or
    #: evicted from cold and ingested again).
    REREAD_LAGS = (0, 2, 8, 20)

    order = "fixed order: even requests first-touch, odd ones re-read at lags (0, 2, 8, 20)"

    def contexts_for(self, num_requests: int) -> int:
        return (num_requests + 1) // 2

    def context_ranks(self, drawn) -> list[int]:
        """Even requests touch a new context, odd ones re-read an earlier one.

        A drawn order makes the share of first touches — which cost ten times
        a read — swing by 13 % between seeds at this size; a fixed pattern
        leaves the seed to vary ids (so ring placement), tensors and arrivals.
        """
        lags = self.REREAD_LAGS
        return [
            i // 2 if i % 2 == 0 else max(i // 2 - lags[(i // 2) % len(lags)], 0)
            for i in range(len(drawn))
        ]

    def make_spec(self):
        from repro.serving.api import ServingSpec

        return ServingSpec(
            model=MODEL,
            topology="tiered",
            num_nodes=1,
            replication=1,
            concurrency=8,
            chunk_tokens=128,
            slo_s=1.5,
            max_bytes_per_node=150e6,
            cold_bytes_per_node=400e6,
            placement="cost",
            eviction_policy="cost",
        )


class ServeSteady(_Serving):
    """A hot 8-context catalogue read through a 4-node cluster and a 2-GPU fleet."""

    name = "serve-steady"
    why = (
        "the read-heavy hot path every experiment sits on: routing, adaptation, "
        "event loop, fleet dispatch, response materialisation, report; every "
        "optional layer is off and must cost nothing here"
    )
    REQUESTS_PER_SECOND = 200.0
    TOKENS_BY_RANK = (640, 320)
    zipf_alpha = 1.0

    def contexts_for(self, num_requests: int) -> int:
        return 8

    def make_spec(self, **extra):
        from repro.serving.api import ServingSpec

        return ServingSpec(
            model=MODEL,
            topology="cluster",
            num_nodes=4,
            replication=2,
            concurrency=8,
            gpu_workers=2,
            dispatch_policy="locality",
            chunk_tokens=256,
            slo_s=1.5,
            **extra,
        )


class ServeChaosObserved(ServeSteady):
    """The serve-steady reads with faults, resilience, telemetry and simcheck on."""

    name = "serve-chaos-observed"
    why = (
        "the same reads with every optional layer switched on; its ops_per_s over "
        "serve-steady's is the price of faults + resilience + telemetry + sanitizers"
    )
    REQUESTS_PER_SECOND = 176.0

    def make_spec(self):
        from repro.faults import ResiliencePolicy

        return super().make_spec(resilience=ResiliencePolicy())

    def drive(self, backend, requests):
        from repro.faults import Corruption, FaultSchedule, LinkDegradation, NodeCrash
        from repro.serving.api import Driver
        from repro.simcheck import SimcheckConfig
        from repro.telemetry import Tracer, write_chrome_trace

        span = requests[-1].arrival_s
        hottest = requests[0].context_id.rsplit("-", 1)[0] + "-0000"
        faults = FaultSchedule(
            [
                NodeCrash("node-0", at_s=0.2 * span, recover_at_s=0.7 * span),
                LinkDegradation(
                    at_s=0.3 * span, until_s=0.5 * span, factor=0.25,
                    node_id="node-1", flaps=2,
                ),
                Corruption(hottest, at_s=0.4 * span),
            ]
        )
        tracer = Tracer()
        with warnings.catch_warnings():
            # The driver warns once that a fault closes a simulation segment;
            # the segments are counted in serving.api.sim_segments instead.
            warnings.simplefilter("ignore", UserWarning)
            report = Driver(
                backend, requests, faults=faults, tracer=tracer,
                # Non-strict: at the seed commit this shape reports busy-time
                # overlaps at segment boundaries; they are counted, not fatal.
                simcheck=SimcheckConfig(strict=False),
            ).run()
        write_chrome_trace(tracer, self.scratch / f"{self.name}.repro-trace.json")
        return report


WORKLOADS = {
    cls.name: cls for cls in (CodecExact, IngestChurn, ServeSteady, ServeChaosObserved)
}
