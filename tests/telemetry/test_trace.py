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


def three_spans_two_samples() -> Tracer:
    tracer = Tracer()
    root = tracer.span("root", track="request:0", start_s=0.0, dur_s=3.0, request_id=0)
    tracer.span("first", track="request:0", start_s=0.5, dur_s=1.0, parent=root, config="high")
    tracer.span("second", track="request:0", start_s=1.5, dur_s=1.0, parent=root, config="high")
    tracer.sample("queue_depth", 2, track="link:a", at_s=0.25)
    tracer.sample("queue_depth", 0, track="link:a", at_s=0.75)
    return tracer


class TestRecordViews:
    """``tracer.spans`` / ``tracer.samples``: read-only sequences built on access."""

    def test_index_negative_index_and_slice(self):
        spans = three_spans_two_samples().spans
        assert len(spans) == 3
        assert spans[0].name == "root"
        assert spans[-1].name == "second" and spans[-1] == spans[2]
        assert [span.name for span in spans[1:]] == ["first", "second"]
        assert [span.name for span in spans[::-2]] == ["second", "root"]
        with pytest.raises(IndexError):
            spans[3]
        with pytest.raises(IndexError):
            spans[-4]

    def test_iteration_is_in_record_order(self):
        tracer = three_spans_two_samples()
        assert [span.name for span in tracer.spans] == ["root", "first", "second"]
        assert [(s.at_s, s.value) for s in tracer.samples] == [(0.25, 2.0), (0.75, 0.0)]

    def test_unpacking(self):
        tracer = Tracer()
        tracer.sample("pool_size", 3, track="gpu-pool", at_s=1.0)
        (sample,) = tracer.samples
        assert (sample.name, sample.track, sample.at_s, sample.value) == (
            "pool_size", "gpu-pool", 1.0, 3.0
        )

    def test_views_are_read_only(self):
        tracer = three_spans_two_samples()
        with pytest.raises(TypeError):
            tracer.spans[0] = tracer.spans[1]
        with pytest.raises(AttributeError):
            tracer.samples.append(tracer.samples[0])
        with pytest.raises(AttributeError):
            tracer.spans = []

    def test_a_view_sees_later_records(self):
        tracer = Tracer()
        spans = tracer.spans
        assert len(spans) == 0
        tracer.span("late", track="t", start_s=0.0)
        assert len(spans) == 1 and spans[0].name == "late"

    def test_handles_compare_and_hash_by_record(self):
        tracer = three_spans_two_samples()
        assert tracer.spans[1] == tracer.spans[1]
        assert tracer.spans[1] != tracer.spans[2]
        assert len({*tracer.spans, *tracer.spans}) == 3
        other = three_spans_two_samples()
        assert other.spans[0] != tracer.spans[0]
        assert tracer.samples[0] == tracer.samples[0]
        assert hash(tracer.samples[1]) == hash(tracer.samples[1])

    def test_child_in_root_children_and_walk(self):
        tracer = three_spans_two_samples()
        root, first, second = tracer.spans
        assert first in root.children and second in root.children
        assert root.children == [first, second]
        assert first.children == [] and first.parent == root
        assert [span.name for span in root.walk()] == ["root", "first", "second"]
        late = tracer.span("late", track="request:0", start_s=2.5, parent=first)
        assert [span.name for span in root.walk()] == ["root", "first", "late", "second"]
        assert late.request_id == 0 and late.end_s == 2.5

    def test_an_args_mutation_persists(self):
        tracer = three_spans_two_samples()
        first = tracer.spans[1]
        first.args["config"] = "low"
        first.args["extra"] = 1
        assert tracer.spans[1].args == {"config": "low", "extra": 1}
        # The other span with equal arguments keeps its own.
        assert tracer.spans[2].args == {"config": "high"}

    def test_annotate_writes_through_and_the_rest_is_read_only(self):
        tracer = three_spans_two_samples()
        tracer.spans[0].annotate(tier="hot", request="r").annotate(tier="cold")
        assert tracer.spans[0].args == {"tier": "cold", "request": "r"}
        with pytest.raises(AttributeError):
            tracer.spans[2].dur_s = 1.5
        with pytest.raises(AttributeError):
            tracer.samples[0].value = 1.0
        assert tracer.spans[2].dur_s == 1.0 and tracer.spans[2].end_s == 2.5

    def test_a_parent_from_another_tracer_is_rejected(self):
        foreign = Tracer().span("root", track="t", start_s=0.0)
        with pytest.raises(ValueError, match="same tracer"):
            Tracer().span("child", track="t", start_s=0.0, parent=foreign)
