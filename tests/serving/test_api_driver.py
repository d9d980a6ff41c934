"""The arrival-driven open-loop driver."""

from __future__ import annotations

import pytest

from repro.cluster import WorkloadGenerator
from repro.serving.api import (
    ConcurrencyLimitAdmission,
    Driver,
    ServeRequest,
    ServingSpec,
    TokenBucketAdmission,
    build_backend,
    serve,
)

SPEC = ServingSpec(model="mistral-7b", chunk_tokens=256, concurrency=4)


class TestAdmissionPolicies:
    def test_token_bucket_sheds_above_rate(self):
        policy = TokenBucketAdmission(rate_per_s=1.0, burst=1)
        decisions = [
            policy.admit(ServeRequest("c", "q", arrival_s=0.1 * i)) for i in range(10)
        ]
        assert decisions[0] is True  # the initial burst token
        assert sum(decisions) < 10  # 10 arrivals in 1s against a 1/s budget
        late = policy.admit(ServeRequest("c", "q", arrival_s=60.0))
        assert late is True  # the bucket refills over idle time

    def test_token_bucket_validates(self):
        with pytest.raises(ValueError):
            TokenBucketAdmission(rate_per_s=0.0)
        with pytest.raises(ValueError):
            TokenBucketAdmission(rate_per_s=1.0, burst=0)

    def test_stateful_policies_reset_between_runs(self, fitted_codec):
        """Each run's arrival clock restarts at zero; so must policy state."""
        workload = WorkloadGenerator(
            num_contexts=2, arrival_rate_per_s=8.0, token_choices=(320,), seed=2
        )
        driver = Driver(
            build_backend(SPEC, codec=fitted_codec()),
            workload,
            admission=ConcurrencyLimitAdmission(max_inflight=2, est_service_s=3.0),
        )
        first = driver.run(8)
        second = driver.run(8)
        assert len(first.responses) > 0
        # Without reset, run 1's absolute-clock departures would pin every
        # slot busy forever and run 2 would shed 100% of its arrivals.
        assert len(second.responses) == len(first.responses)
        assert second.shed == first.shed

    def test_concurrency_limit_models_departures(self):
        policy = ConcurrencyLimitAdmission(max_inflight=2, est_service_s=1.0)
        assert policy.admit(ServeRequest("c", "q", arrival_s=0.0))
        assert policy.admit(ServeRequest("c", "q", arrival_s=0.1))
        assert not policy.admit(ServeRequest("c", "q", arrival_s=0.2))
        # After the modeled service time the slots free up again.
        assert policy.admit(ServeRequest("c", "q", arrival_s=1.5))


class TestDriver:
    def test_open_loop_run_exposes_steady_state_queueing(self, fitted_codec):
        """A hot Poisson arrival stream queues *within* the run — no waves."""
        workload = WorkloadGenerator(
            num_contexts=2,
            zipf_alpha=1.0,
            arrival_rate_per_s=40.0,
            token_choices=(640,),
            seed=3,
        )
        report = serve(SPEC, workload=workload, num_requests=16, codec=fitted_codec())
        assert report.num_requests == 16
        assert report.hard_failures == 0
        assert report.queueing is not None
        assert report.queueing.max_s > 0.0
        assert report.duration_s > 0.0
        assert report.offered_rate_rps > 0.0
        # Responses keep their true (absolute) arrival times: the stream was
        # not re-based wave by wave.
        arrivals = sorted(r.arrival_s for r in report.responses)
        assert arrivals[-1] > arrivals[0]

    def test_driver_reproduces_figure12_concurrency_curve(self, fitted_codec):
        """The open-loop driver and the figure-12 experiment agree."""
        from repro.experiments import run_figure12_concurrency

        levels = (1, 3)
        num_tokens = 1_600
        result = run_figure12_concurrency(
            concurrency_levels=levels, num_tokens=num_tokens
        )
        spec = ServingSpec(model="mistral-7b", concurrency=max(levels))
        for n in levels:
            backend = build_backend(spec, codec=fitted_codec())
            requests = [
                ServeRequest(
                    "figure12-context",
                    "What does the context say?",
                    arrival_s=0.0,
                    num_tokens=num_tokens,
                )
                for _ in range(n)
            ]
            report = Driver(backend, requests).run()
            row = result.filter(concurrent_requests=n, method="cachegen")[0]
            assert report.ttft.mean_s == pytest.approx(row["ttft_s"], rel=0.02)
            assert report.queueing.mean_s == pytest.approx(
                row["queueing_s"], rel=0.02, abs=1e-9
            )

    def test_shedding_reported_and_excluded_from_service(self, fitted_codec):
        workload = WorkloadGenerator(
            num_contexts=2,
            arrival_rate_per_s=40.0,
            token_choices=(640,),
            seed=5,
        )
        report = serve(
            SPEC,
            workload=workload,
            num_requests=12,
            admission=TokenBucketAdmission(rate_per_s=5.0, burst=1),
            codec=fitted_codec(),
        )
        assert report.shed > 0
        assert report.shed + len(report.responses) == report.num_requests == 12
        assert 0.0 < report.shed_ratio < 1.0

    def test_node_failure_splits_segments_and_degrades_gracefully(self, fitted_codec):
        spec = ServingSpec(
            model="mistral-7b",
            chunk_tokens=256,
            topology="cluster",
            num_nodes=2,
            replication=2,
            concurrency=2,
        )
        backend = build_backend(spec, codec=fitted_codec())
        workload = WorkloadGenerator(
            num_contexts=3, token_choices=(640,), arrival_rate_per_s=4.0, seed=9
        )
        driver = Driver(backend, workload, node_failures={4: "node-0"})
        report = driver.run(10)
        assert report.hard_failures == 0
        assert not backend.engine.cluster.node("node-0").up
        assert report.kv_served + report.text_served == 10
        # With 2x replication the surviving replica keeps serving from cache.
        assert report.kv_served > 0
    def test_concurrent_failover_names_attempted_nodes(self, fitted_codec):
        """Every request that fails over names the node it tried first in attempted_node_ids."""
        spec = ServingSpec(
            model="mistral-7b",
            chunk_tokens=256,
            topology="cluster",
            num_nodes=3,
            replication=2,
            concurrency=2,
        )
        backend = build_backend(spec, codec=fitted_codec())
        backend.ingest("failover-doc", 640)
        primary = backend.engine.cluster.replicas_for("failover-doc")[0]
        backend.mark_down(primary)
        backend.submit(ServeRequest("failover-doc", "Q?", num_tokens=640))
        backend.submit(ServeRequest("failover-doc", "Q again?", num_tokens=640))
        responses = backend.run()
        assert all(r.failed_over for r in responses)
        assert all(primary in r.attempted_node_ids for r in responses)

    def test_topology_events_name_a_node_of_the_backend(self, fitted_codec):
        # The single topology's one node is "node-0"; with it down the
        # queries degrade to text.
        backend = build_backend(SPEC, codec=fitted_codec())
        Driver(backend, None, node_failures={0: "node-0"})
        with pytest.raises(KeyError, match="unknown node 'node-1'"):
            Driver(backend, None, node_recoveries={3: "node-1"})

    def test_tracer_and_simcheck_end_with_their_driver(self, fitted_codec):
        """A reused backend must not keep tracing into an earlier run's tracer."""
        from repro.telemetry import Tracer

        backend = build_backend(SPEC, codec=fitted_codec())
        requests = [
            ServeRequest("reused-doc", f"Q{i}?", arrival_s=0.05 * i, num_tokens=320)
            for i in range(3)
        ]
        tracer = Tracer()
        Driver(backend, requests, tracer=tracer, simcheck=True).run()
        spans = len(tracer.spans)
        assert spans > 0 and backend.clock_factory is not None
        untraced = Driver(backend, requests, simcheck=False).run()
        assert untraced.telemetry is None
        assert len(tracer.spans) == spans
        assert backend.tracer is None and backend.clock_factory is None

    def test_driver_requires_a_workload(self, fitted_codec):
        with pytest.raises(ValueError, match="workload"):
            Driver(build_backend(SPEC, codec=fitted_codec()), None).run()

    def test_num_requests_required_with_generator(self, fitted_codec):
        workload = WorkloadGenerator(num_contexts=2, token_choices=(320,))
        with pytest.raises(ValueError, match="num_requests"):
            Driver(build_backend(SPEC, codec=fitted_codec()), workload).run()

    def test_ingest_interleaves_under_capacity_pressure(self, fitted_codec):
        """A bounded store serves arrivals against *their* store state.

        The store only holds one context at a time: ingesting B evicts A.  If
        all ingests ran before any serving, A's queries would degrade to the
        text path; the ingest barrier keeps them KV-served.
        """
        spec = SPEC.with_(max_bytes_per_node=30e6)
        requests = [
            ServeRequest("ctx-a", "Q0?", arrival_s=0.0, num_tokens=320),
            ServeRequest("ctx-a", "Q1?", arrival_s=0.1, num_tokens=320),
            ServeRequest("ctx-b", "Q2?", arrival_s=0.2, num_tokens=320),
            ServeRequest("ctx-b", "Q3?", arrival_s=0.3, num_tokens=320),
        ]
        report = serve(spec, requests, reingest_on_miss=False, codec=fitted_codec())
        assert report.total_evictions >= 1  # B's ingest displaced A
        assert report.kv_served == 4

    def test_one_bad_request_does_not_sink_its_segment(self, fitted_codec):
        requests = [
            ServeRequest("good-doc", "Q?", arrival_s=0.0, num_tokens=640),
            # Never ingested and no length: the engine must reject it — but
            # only it, not its segment-mates.
            ServeRequest("never-ingested", "Q?", arrival_s=0.1),
        ]
        report = serve(SPEC, requests, codec=fitted_codec())
        assert report.hard_failures == 1
        assert len(report.responses) == 1
        assert report.responses[0].context_id == "good-doc"
        assert report.responses[0].used_kv_cache

    def test_max_batch_segments_cover_all_requests(self, fitted_codec):
        requests = [
            ServeRequest("seg-doc", f"Q{i}?", arrival_s=0.2 * i, num_tokens=640)
            for i in range(5)
        ]
        report = serve(SPEC, requests, max_batch=2, codec=fitted_codec())
        assert len(report.responses) == 5
        assert [r.question for r in report.responses] == [r.question for r in requests]

    def test_spec_slo_reaches_the_request_without_dropping_its_session(self):
        """Filling in the spec's SLO must keep every other request field."""
        spec = SPEC.with_(
            slo_s=1.0, concurrency=4, gpu_workers=2, dispatch_policy="sticky"
        )
        requests = [
            ServeRequest(
                f"doc-{i % 2}", "Q?", num_tokens=1_024, session_id=f"chat-{i % 2}"
            )
            for i in range(4)
        ]
        driver = Driver(spec, requests)
        driver.run()
        pool = driver.backend.last_sim.pool
        bindings = pool.dispatch._bindings
        # Sticky dispatch saw the sessions (not the batch-key fallback), and
        # the two co-arriving sessions were pinned to the two workers.
        assert set(bindings) == {"chat-0", "chat-1"}
        assert bindings["chat-0"] is not bindings["chat-1"]
