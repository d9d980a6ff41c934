"""Tracer and Span semantics."""

import pytest

from repro.telemetry import QUEUEING, Tracer


class TestSpan:
    def test_durations_are_authoritative_not_derived(self):
        tracer = Tracer()
        span = tracer.span("transfer", track="link:a", start_s=1.0, dur_s=0.25)
        assert span.dur_s == 0.25
        assert span.end_s == 1.25

    def test_end_s_keyword_computes_duration(self):
        tracer = Tracer()
        span = tracer.span("x", track="t", start_s=1.0, end_s=3.5)
        assert span.dur_s == 2.5

    def test_end_before_start_clamps_to_zero(self):
        span = Tracer().span("x", track="t", start_s=2.0, end_s=1.5)
        assert span.dur_s == 0.0
        assert span.end_s == 2.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Tracer().span("x", track="t", start_s=0.0, dur_s=-1.0)

    def test_children_nest_and_inherit_request_id(self):
        tracer = Tracer()
        root = tracer.span("request", track="request:0", start_s=0.0, request_id=0)
        child = tracer.span("wait", track="request:0", start_s=0.0, parent=root)
        assert child in root.children
        assert child.request_id == 0
        assert [s.name for s in root.walk()] == ["request", "wait"]

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        root = tracer.span("root", track="t", start_s=0.0)
        first = tracer.span("first", track="t", start_s=0.0, parent=root)
        tracer.span("inner", track="t", start_s=0.0, parent=first)
        tracer.span("second", track="t", start_s=0.0, parent=root)
        assert [s.name for s in root.walk()] == ["root", "first", "inner", "second"]
        assert tracer.root_spans() == [root]

    def test_annotate_merges_args(self):
        tracer = Tracer()
        span = tracer.span("x", track="t", start_s=0.0, bytes=10)
        span.annotate(tier="disk")
        assert span.args == {"bytes": 10, "tier": "disk"}


class TestTracer:
    def test_soft_clock_never_moves_backward(self):
        tracer = Tracer()
        tracer.advance_to(2.0)
        tracer.advance_to(1.0)
        assert tracer.now == 2.0
        assert tracer.instant("evt", track="t").at_s == 2.0
        assert tracer.span("s", track="t").start_s == 2.0

    def test_request_ids_are_run_unique(self):
        tracer = Tracer()
        assert [tracer.new_request_id() for _ in range(3)] == [0, 1, 2]

    def test_tracks_keep_first_use_order(self):
        tracer = Tracer()
        tracer.span("a", track="gpu", start_s=0.0)
        tracer.sample("depth", 1, track="link:x", at_s=0.0)
        tracer.instant("down", track="cluster", at_s=0.0)
        tracer.span("b", track="gpu", start_s=1.0)
        assert tracer.tracks == ["gpu", "link:x", "cluster"]

    def test_queries_filter_by_track_request_and_name(self):
        tracer = Tracer()
        root = tracer.span("request", track="request:7", start_s=0.0, request_id=7)
        tracer.span("gpu wait", track="request:7", start_s=0.0, category=QUEUEING, parent=root)
        tracer.span("batch decode", track="gpu", start_s=0.0, category="decode")
        gpu = [span for span in tracer.spans if span.track == "gpu"]
        assert tracer.root_spans() == [root, gpu[0]]
