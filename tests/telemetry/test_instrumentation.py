"""End-to-end telemetry: traced serving runs and their exported timelines."""

import json

import pytest

from repro.serving.api import ServeRequest, ServingSpec, TokenBucketAdmission, serve
from repro.telemetry import (
    COMPUTE,
    DECODE,
    QUEUEING,
    TRANSFER,
    Tracer,
    chrome_trace_events,
    to_chrome_trace,
    write_chrome_trace,
)

SPEC = ServingSpec(model="mistral-7b", chunk_tokens=256, concurrency=4)


def contended_requests(n: int = 5) -> list[ServeRequest]:
    """Near-simultaneous queries against one context: link + GPU contention."""
    return [
        ServeRequest("shared-doc", f"Q{i}?", arrival_s=0.01 * i, num_tokens=640)
        for i in range(n)
    ]


def request_roots(tracer: Tracer) -> list:
    return [s for s in tracer.root_spans() if s.category == "request"]


def category_sums(root) -> dict:
    sums: dict = {}
    for child in root.children:
        sums[child.category] = sums.get(child.category, 0.0) + child.dur_s
    return sums


class TestTracedConcurrentRun:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer()
        report = serve(SPEC, contended_requests(), tracer=tracer)
        return tracer, report

    def test_report_carries_the_tracer(self, traced):
        tracer, report = traced
        assert report.telemetry is tracer

    def test_one_root_span_per_response(self, traced):
        tracer, report = traced
        roots = request_roots(tracer)
        assert len(roots) == len(report.responses) == 5
        # Root spans cover arrival → finish and carry the context id.
        for root in roots:
            assert root.args["context_id"] == "shared-doc"
            assert root.track == f"request:{root.request_id}"

    def test_span_durations_sum_exactly_to_the_ttft_breakdown(self, traced):
        """The headline consistency property: per-category child-span sums
        reproduce each request's QueueingTTFTBreakdown components exactly
        (durations are copied from the simulator's records, never derived
        from endpoint subtraction)."""
        tracer, report = traced
        roots_by_arrival = {root.start_s: root for root in request_roots(tracer)}
        for response in report.responses:
            root = roots_by_arrival[response.arrival_s]
            sums = category_sums(root)
            ttft = response.ttft
            assert sums.get(TRANSFER, 0.0) == ttft.network_s
            assert sums.get(DECODE, 0.0) == ttft.decode_s
            assert sums.get(COMPUTE, 0.0) == ttft.compute_s
            assert sums.get(QUEUEING, 0.0) == pytest.approx(
                ttft.queueing_s, rel=1e-12, abs=1e-15
            )
            assert root.dur_s == pytest.approx(ttft.total_s, rel=1e-12, abs=1e-15)

    def test_queue_wait_spans_explain_the_slowest_request(self, traced):
        """Under contention the tail TTFT is queueing, and the trace shows
        which queue: the slow request's wait spans name the link and GPU."""
        tracer, report = traced
        slowest = max(report.responses, key=lambda r: r.ttft_s)
        fastest = min(report.responses, key=lambda r: r.ttft_s)
        assert slowest.ttft.queueing_s > fastest.ttft.queueing_s
        # Exact == on purpose: the root span's start is *copied* from the
        # arrival, so lookup by equality is the invariant under test.
        root = next(
            r
            for r in request_roots(tracer)
            if r.start_s == slowest.arrival_s  # simcheck: ignore[SIM004]
        )
        waits = [c for c in root.children if c.category == QUEUEING]
        assert waits, "the slowest request must show explicit wait spans"
        assert {c.name for c in waits} <= {"admission wait", "link wait", "gpu wait"}

    def test_resource_tracks_record_utilization(self, traced):
        tracer, _report = traced
        assert tracer.spans_on("gpu"), "GPU launches must appear on the gpu track"
        assert tracer.spans_on("link:node-0"), "transfers must appear on the link track"
        # Queue depths were sampled on every enqueue/dequeue event.
        depth_tracks = {s.track for s in tracer.samples if s.name == "queue_depth"}
        assert {"gpu", "link:node-0"} <= depth_tracks
        metrics = tracer.metrics.snapshot()
        assert metrics["gpu_busy_s"]["values"]["gpu=gpu"] > 0.0
        assert metrics["request_ttft_s"]["values"][""]["count"] == 5

    def test_chrome_export_is_schema_valid_with_monotonic_timestamps(self, traced):
        tracer, _report = traced
        trace = to_chrome_trace(tracer)
        assert json.loads(json.dumps(trace)) == trace
        events = trace["traceEvents"]
        phases = [e["ph"] for e in events]
        first_timed = phases.index(next(p for p in phases if p != "M"))
        assert set(phases[:first_timed]) == {"M"}
        assert "M" not in phases[first_timed:]
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)
        assert all(ts >= 0 for ts in timestamps)


    def test_written_trace_is_byte_for_byte_json_dump(self, traced, tmp_path):
        """The writer batches the events through ``json.dumps``; the file is
        what ``json.dump`` of the trace object writes, newline-terminated."""
        tracer, _report = traced
        reference = tmp_path / "reference.json"
        with reference.open("w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(tracer), handle)
            handle.write("\n")
        written = write_chrome_trace(tracer, tmp_path / "trace.json")
        assert written.read_bytes() == reference.read_bytes()


class TestZeroOverheadDefault:
    def test_untraced_runs_record_nothing_and_match_traced_results(self):
        requests = contended_requests()
        untraced = serve(SPEC, requests)
        assert untraced.telemetry is None

        tracer = Tracer()
        traced = serve(SPEC, contended_requests(), tracer=tracer)
        assert [r.ttft_s for r in traced.responses] == [
            r.ttft_s for r in untraced.responses
        ]


class TestDriverEvents:
    def test_ingests_and_sheds_appear_as_events(self):
        tracer = Tracer()
        requests = [
            ServeRequest("doc-a", "Q0?", arrival_s=0.0, num_tokens=320),
            ServeRequest("doc-a", "Q1?", arrival_s=0.01, num_tokens=320),
            ServeRequest("doc-b", "Q2?", arrival_s=0.02, num_tokens=320),
            ServeRequest("doc-b", "Q3?", arrival_s=0.03, num_tokens=320),
        ]
        report = serve(
            SPEC,
            requests,
            admission=TokenBucketAdmission(rate_per_s=2.0, burst=1),
            tracer=tracer,
        )
        assert report.shed > 0
        sheds = [i for i in tracer.instants if i.name == "shed"]
        assert len(sheds) == report.shed
        assert all(shed.track == "admission" for shed in sheds)
        assert tracer.metrics.counter("requests_shed").value() == report.shed
        ingests = tracer.find_spans(name="ingest/encode")
        # Only the admitted arrival triggered an ingest: shed requests never
        # reach the ingest path, so their contexts leave no encode span.
        assert {s.args["context_id"] for s in ingests} == {"doc-a"}
        assert all(s.track == "ingest" for s in ingests)

    def test_cluster_runs_trace_topology_and_storage_events(self):
        spec = ServingSpec(
            model="mistral-7b",
            chunk_tokens=256,
            topology="cluster",
            num_nodes=2,
            replication=2,
            concurrency=2,
        )
        tracer = Tracer()
        from repro.serving.api import Driver, build_backend

        requests = [
            ServeRequest("ha-doc", f"Q{i}?", arrival_s=0.5 * i, num_tokens=640)
            for i in range(6)
        ]
        backend = build_backend(spec)
        driver = Driver(backend, requests, node_failures={3: "node-0"}, tracer=tracer)
        report = driver.run()
        assert report.hard_failures == 0
        downs = [i for i in tracer.instants if i.name == "node down"]
        assert len(downs) == 1 and downs[0].track == "cluster"
        assert downs[0].args == {"node": "node-0"}
        # Requests after the failure still serve from the surviving replica.
        assert report.kv_served > 0
        events = chrome_trace_events(tracer)
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)
