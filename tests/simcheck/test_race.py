"""The event-order race detector: catches order-dependent simulations."""

from __future__ import annotations

import pytest

from repro.serving.api import ServeRequest, ServingSpec, serve
from repro.simcheck import check_spec_order_independence, find_order_race
from repro.simcheck.race import run_report_digest

SEEDS = tuple(range(1, 7))


class TestFindOrderRace:
    def test_order_dependent_toy_is_caught(self):
        """Same-timestamp callbacks whose effects do not commute: the final
        state depends on firing order, which perturbation must expose."""

        def run(clock_factory):
            clock = clock_factory()
            state = {"value": 1.0}

            def double():
                state["value"] *= 2.0

            def increment():
                state["value"] += 10.0

            for callback in (double, increment, double, increment):
                clock.schedule(1.0, callback)
            clock.run()
            return state["value"]

        report = find_order_race(run, seeds=SEEDS)
        assert report.order_dependent
        assert report.mismatching_seeds  # names the seeds that exposed it
        assert "ORDER-DEPENDENT" in report.describe()

    def test_commutative_toy_passes(self):
        def run(clock_factory):
            clock = clock_factory()
            state = {"total": 0.0}
            for amount in (1.0, 2.0, 3.0, 4.0):
                clock.schedule(1.0, lambda amount=amount: state.__setitem__(
                    "total", state["total"] + amount
                ))
            clock.run()
            return state["total"]

        report = find_order_race(run, seeds=SEEDS)
        assert not report.order_dependent
        assert report.mismatching_seeds == ()
        assert "order-independent" in report.describe()

    def test_order_dependent_event_sequence_is_caught(self):
        """Even when numeric results agree, an order-sensitive digest (the
        firing sequence itself) must move under perturbation."""

        def run(clock_factory):
            clock = clock_factory()
            order: list[str] = []
            for label in "abcd":
                clock.schedule(2.0, lambda label=label: order.append(label))
            clock.run()
            return tuple(order)

        report = find_order_race(run, seeds=SEEDS)
        assert report.baseline == ("a", "b", "c", "d")  # FIFO baseline
        assert report.order_dependent

    def test_requires_at_least_one_seed(self):
        with pytest.raises(ValueError, match="seed"):
            find_order_race(lambda factory: 0, seeds=())


class TestRunReportDigest:
    def test_identical_runs_digest_identically(self, fitted_codec):
        spec = ServingSpec(model="mistral-7b", chunk_tokens=256, concurrency=2)
        requests = [
            ServeRequest("digest-doc", f"Q{i}?", arrival_s=0.05 * i, num_tokens=640)
            for i in range(3)
        ]
        first = run_report_digest(serve(spec, requests, codec=fitted_codec()))
        second = run_report_digest(serve(spec, requests, codec=fitted_codec()))
        assert first == second

    def test_digest_is_response_order_insensitive(self, fitted_codec):
        spec = ServingSpec(model="mistral-7b", chunk_tokens=256, concurrency=2)
        requests = [
            ServeRequest("digest-doc", f"Q{i}?", arrival_s=0.05 * i, num_tokens=640)
            for i in range(3)
        ]
        report = serve(spec, requests, codec=fitted_codec())
        digest = run_report_digest(report)
        report.responses.reverse()
        assert run_report_digest(report) == digest


class TestSpecOrderIndependence:
    def test_figure12_concurrency_shape_is_clean(self, fitted_codec):
        """Acceptance: the figure12 experiment shape — one shared context,
        simultaneous identical arrivals over a worker pool — must not depend
        on same-timestamp tie-break order."""
        spec = ServingSpec(concurrency=8, gpu_workers=2)
        requests = [
            ServeRequest("figure12-context", "race?", arrival_s=0.0, num_tokens=640)
            for _ in range(6)
        ]
        report = check_spec_order_independence(spec, requests, seeds=(1, 2), codec=fitted_codec())
        assert not report.order_dependent, report.describe()

    def test_requires_exactly_one_request_source(self):
        spec = ServingSpec(concurrency=2)
        with pytest.raises(ValueError, match="exactly one"):
            check_spec_order_independence(spec)
        with pytest.raises(ValueError, match="num_requests"):
            check_spec_order_independence(spec, workload=object())


class TestCliSmoke:
    def test_race_smoke_flag_is_clean(self):
        import io

        from repro.simcheck.__main__ import main

        out = io.StringIO()
        assert main(["--race-smoke"], out=out) == 0
        assert "order-independent" in out.getvalue()
