"""Chrome trace-event and JSONL export formats."""

import json
import tracemalloc

import pytest

from conftest import chrome_trace_events, to_chrome_trace
from repro.telemetry import (
    Tracer,
    iter_jsonl_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.export import _EVENT_BATCH, REQUESTS_PID, RESOURCES_PID


def small_tracer() -> Tracer:
    """A hand-built tracer touching every event kind and both pid groups."""
    tracer = Tracer()
    root = tracer.span(
        "request doc", track="request:0", start_s=0.0, dur_s=1.0, request_id=0
    )
    tracer.span(
        "transfer", track="request:0", start_s=0.1, dur_s=0.4, category="transfer",
        parent=root, bytes=1000,
    )
    tracer.span("batch decode x2", track="gpu", start_s=0.5, dur_s=0.2, category="decode")
    tracer.instant("eviction", track="storage:local", at_s=0.3, context_id="old-doc")
    tracer.sample("queue_depth", 2, track="gpu", at_s=0.45)
    tracer.metrics.counter("requests_served").inc(1, path="kv")
    return tracer


class TestChromeTrace:
    def test_metadata_events_come_first_and_name_every_track(self):
        tracer = small_tracer()
        events = chrome_trace_events(tracer)
        meta = [e for e in events if e["ph"] == "M"]
        assert events[: len(meta)] == meta  # all "M" events lead
        process_names = {
            e["pid"]: e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        assert process_names == {REQUESTS_PID: "requests", RESOURCES_PID: "resources"}
        thread_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert thread_names == {"request:0", "gpu", "storage:local"}

    def test_timestamps_are_monotonic_microseconds(self):
        events = chrome_trace_events(small_tracer())
        timed = [e for e in events if e["ph"] != "M"]
        timestamps = [e["ts"] for e in timed]
        assert timestamps == sorted(timestamps)
        # The sim clock is seconds; the trace wants microseconds.
        transfer = next(e for e in timed if e["name"] == "transfer")
        assert transfer["ts"] == 0.1 * 1e6
        assert transfer["dur"] == 0.4 * 1e6

    def test_event_shapes_match_the_trace_event_format(self):
        events = chrome_trace_events(small_tracer())
        for event in events:
            assert event["ph"] in {"M", "X", "i", "C"}
            assert "pid" in event and "tid" in event
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"  # thread-scoped instant
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["name"] == "gpu queue_depth"
        assert counter["args"] == {"queue_depth": 2.0}

    def test_request_and_resource_tracks_split_by_pid(self):
        events = chrome_trace_events(small_tracer())
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert spans["request doc"]["pid"] == REQUESTS_PID
        assert spans["batch decode x2"]["pid"] == RESOURCES_PID

    def test_trace_object_round_trips_through_json(self):
        trace = to_chrome_trace(small_tracer())
        assert json.loads(json.dumps(trace)) == trace
        assert trace["displayTimeUnit"] == "ms"
        metrics = trace["otherData"]["metrics"]
        assert metrics["requests_served"]["values"] == {"path=kv": 1.0}

    def test_write_chrome_trace_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "nested" / "trace.json"
        path = write_chrome_trace(small_tracer(), out)
        assert path == out
        loaded = json.loads(out.read_text())
        assert {e["ph"] for e in loaded["traceEvents"]} == {"M", "X", "i", "C"}


    @pytest.mark.parametrize("spans", [0, 1, _EVENT_BATCH - 4, _EVENT_BATCH - 3, 2 * _EVENT_BATCH + 7])
    def test_written_bytes_are_json_dump_at_every_batch_boundary(self, tmp_path, spans):
        """Three metadata events lead, so ``_EVENT_BATCH - 3`` spans fill one batch exactly."""
        tracer = Tracer()
        for index in range(spans):
            tracer.span(f"s{index}", track="gpu", start_s=0.001 * index, dur_s=0.0005, n=index)
        tracer.metrics.counter("unicode \u00b5s").inc(1, path='quo"te')
        reference = tmp_path / "reference.json"
        with reference.open("w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(tracer), handle)
            handle.write("\n")
        written = write_chrome_trace(tracer, tmp_path / "trace.json")
        assert written.read_bytes() == reference.read_bytes()

    def test_writing_holds_a_batch_not_the_file(self, tmp_path):
        """The writer builds the event dicts a batch at a time, so its peak is a
        fraction of building the list ``to_chrome_trace`` returns (measured
        5.0 against 31.4 MiB for 30k spans and 30k samples)."""
        tracer = Tracer()
        for index in range(30_000):
            tracer.span("decode", track="gpu", start_s=0.001 * index, dur_s=0.0005, n=index)
            tracer.sample("queue_depth", index % 5, track="gpu", at_s=0.001 * index)
        out = tmp_path / "trace.json"
        building = traced_peak(lambda: to_chrome_trace(tracer))
        writing = traced_peak(lambda: write_chrome_trace(tracer, out))
        assert writing < building / 4

    def test_ties_keep_spans_then_instants_then_samples_in_recording_order(self):
        """The streamed order is the stable sort by ``ts`` of the built events."""
        tracer = Tracer()
        for index, at_s in enumerate((0.3, 0.1, 0.3, 0.2, 0.1)):
            tracer.sample("depth", index, track="gpu", at_s=at_s)
            tracer.instant(f"i{index}", track="gpu", at_s=at_s)
            tracer.span(f"s{index}", track="gpu", start_s=at_s, dur_s=0.01)
        timed = [e for e in chrome_trace_events(tracer) if e["ph"] != "M"]
        names = [e["name"] if e["ph"] != "C" else f"c{e['args']['depth']:.0f}" for e in timed]
        assert names == [
            "s1", "s4", "i1", "i4", "c1", "c4",
            "s3", "i3", "c3",
            "s0", "s2", "i0", "i2", "c0", "c2",
        ]


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestJsonl:
    def test_records_are_time_ordered_and_self_describing(self):
        records = list(iter_jsonl_events(small_tracer()))
        assert records[-1]["kind"] == "metrics"
        timed = records[:-1]
        assert [r["kind"] for r in timed] == ["span", "span", "instant", "counter", "span"]
        times = [r.get("start_s", r.get("at_s")) for r in timed]
        assert times == sorted(times)

    def test_write_jsonl_emits_one_object_per_line(self, tmp_path):
        out = write_jsonl(small_tracer(), tmp_path / "events.jsonl")
        lines = out.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert len(parsed) == 6  # 3 spans + 1 instant + 1 counter + metrics
        assert parsed[-1]["metrics"]["requests_served"]["type"] == "counter"

    def test_round_trip_reconstructs_the_tracer_state(self, tmp_path):
        """Everything the tracer holds survives the trip through the file."""
        tracer = small_tracer()
        out = write_jsonl(tracer, tmp_path / "events.jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines()]

        spans = [r for r in records if r["kind"] == "span"]
        assert len(spans) == len(tracer.spans)
        by_name = {s["name"]: s for s in spans}
        for span in tracer.spans:
            record = by_name[span.name]
            assert record["track"] == span.track
            assert record["start_s"] == span.start_s
            assert record["dur_s"] == span.dur_s
            assert record["category"] == span.category
            assert record["args"] == span.args

        (instant,) = [r for r in records if r["kind"] == "instant"]
        (tracer_instant,) = tracer.instants
        assert instant["name"] == tracer_instant.name
        assert instant["at_s"] == tracer_instant.at_s
        assert instant["track"] == tracer_instant.track

        (counter,) = [r for r in records if r["kind"] == "counter"]
        (sample,) = tracer.samples
        assert counter["name"] == sample.name
        assert counter["at_s"] == sample.at_s
        assert counter["value"] == sample.value

        (metrics,) = [r for r in records if r["kind"] == "metrics"]
        assert metrics["metrics"] == tracer.metrics.snapshot()
