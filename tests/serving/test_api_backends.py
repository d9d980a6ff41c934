"""The unified backend: one spec, one serving object, one response schema."""

from __future__ import annotations

import ast
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.serving import ServeRequest, ServeResponse, ServingSpec
from repro.serving.api import build_backend, serve

BASE = ServingSpec(model="mistral-7b", chunk_tokens=256)
REQUESTS = [
    ServeRequest("api-doc", f"Question {i}?", arrival_s=0.05 * i, num_tokens=640)
    for i in range(3)
]


@pytest.fixture(scope="module")
def reports(fitted_codec):
    """The same workload served through all three backends."""
    return {
        "single": serve(BASE, REQUESTS, codec=fitted_codec()),
        "concurrent": serve(replace(BASE, concurrency=3), REQUESTS, codec=fitted_codec()),
        "cluster": serve(
            replace(BASE, topology="cluster", num_nodes=2, replication=2, concurrency=3),
            REQUESTS,
            codec=fitted_codec(),
        ),
    }


class TestEndToEnd:
    def test_every_backend_serves_every_request(self, reports):
        for report in reports.values():
            assert report.num_requests == len(REQUESTS)
            assert report.kv_served == len(REQUESTS)
            assert report.hard_failures == 0
            assert report.shed == 0

    def test_unified_response_schema(self, reports):
        """All three backends populate the exact same field set."""
        field_sets = {}
        for kind, report in reports.items():
            assert len(report.responses) == len(REQUESTS)
            for response in report.responses:
                assert isinstance(response, ServeResponse)
            field_sets[kind] = {
                f.name for f in fields(report.responses[0])
            }
        assert field_sets["single"] == field_sets["concurrent"] == field_sets["cluster"]
        # And the unified fields are really there, not just defaulted away.
        for report in reports.values():
            response = report.responses[0]
            assert response.used_kv_cache
            assert response.served_tier == "hot"
            assert response.ttft_s > 0
            assert response.finish_s >= response.arrival_s
            assert response.queueing_s >= 0.0

    def test_every_topology_names_the_serving_node(self, reports):
        # The single topology is the one-node cluster: its node is "node-0".
        assert all(r.served_by == "node-0" for r in reports["single"].responses)
        assert all(r.served_by == "node-0" for r in reports["concurrent"].responses)
        assert all(r.served_by is not None for r in reports["cluster"].responses)

    def test_reports_share_one_shape(self, reports):
        for report in reports.values():
            assert report.ttft.count == len(REQUESTS)
            assert report.queueing is not None
            assert report.ingests == 1  # one context, ingested on first touch
            assert report.query_bytes > 0
            assert report.duration_s > 0
            assert report.throughput_rps > 0

    def test_report_formats_as_table(self, reports):
        for kind, report in reports.items():
            table = report.format_table()
            assert "requests" in table
            assert "TTFT" in table
            assert "arrivals" in table
        assert "node-0" in reports["cluster"].format_table()

    def test_report_ratio_properties(self, reports):
        report = reports["cluster"]
        assert report.hit_ratio == 1.0
        assert report.hot_hit_ratio == 1.0
        assert report.cold_hit_ratio == 0.0
        assert report.shed_ratio == 0.0
        assert report.bytes_moved == report.replication_bytes + report.query_bytes

    def test_serve_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            serve(BASE)
        with pytest.raises(ValueError, match="exactly one"):
            serve(BASE, REQUESTS, workload=object())


class TestOneExecutor:
    """Every request is played on the event engine; ``concurrency`` selects nothing."""

    # The second request arrives while the first still holds the link.
    OVERLAPPING = [
        ServeRequest("api-doc", "First?", arrival_s=0.0),
        ServeRequest("api-doc", "Second?", arrival_s=0.001),
        ServeRequest("never-ingested", "Third?", arrival_s=0.002, num_tokens=640),
    ]

    def _serve(self, spec, codec):
        backend = build_backend(spec, codec=codec)
        backend.ingest("api-doc", 640)
        return backend.run(self.OVERLAPPING)

    def test_overlapping_requests_contend_on_a_default_spec(self, fitted_codec):
        _, second, third = self._serve(BASE, fitted_codec())
        assert second.queueing_s > 0.0
        assert third.queueing_s > 0.0

    def test_declared_concurrency_changes_nothing(self, fitted_codec):
        alone = self._serve(BASE, fitted_codec())
        declared = self._serve(replace(BASE, concurrency=8), fitted_codec())
        for one, eight in zip(alone, declared, strict=True):
            assert one.ttft == eight.ttft
            assert list(one.chunk_configs) == list(eight.chunk_configs)
            assert one.transmitted_bytes == eight.transmitted_bytes
            assert (one.arrival_s, one.finish_s) == (eight.arrival_s, eight.finish_s)


class TestRunBuildsItsSimulator:
    """Every ``run`` plays on a simulator built from the spec's executor settings."""

    def test_event_backend_builds_sim_from_spec(self, fitted_codec):
        spec = replace(BASE, concurrency=4, max_decode_batch=8, admission_limit=2)
        backend = build_backend(spec, codec=fitted_codec())
        assert backend.last_sim is None
        backend.run([ServeRequest("never-ingested", "Q?", num_tokens=320)])
        sim = backend.last_sim
        assert sim.max_decode_batch == 8
        assert sim.batch_overhead == spec.batch_overhead
        assert sim.admission_limit == 2


class TestOneWayIn:
    """A deployment is declared once, as a spec, and served by one object."""

    REPO = Path(__file__).resolve().parents[2]
    #: The serving layers the backend absorbed, and the engine factory before them.
    REMOVED = ("build_engine", "ContextLoadingEngine", "serve_batch", "_EngineComponents")
    #: ``submit`` is the GPU side's verb (scheduler, worker, pool); a backend
    #: takes its requests in ``run``.
    SUBMIT_RECEIVERS = {"gpu", "worker", "workers[0]", "workers[1]", "pool"}

    def _trees(self):
        for top in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((self.REPO / top).rglob("*.py")):
                yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def test_the_store_topology_is_built_only_in_backend_init(self):
        class Calls(ast.NodeVisitor):
            def __init__(self):
                self.scope: list[str] = []
                self.sites: list[str] = []

            def scoped(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = scoped

            def visit_Call(self, node):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("ShardedKVStore", "StorageNode"):
                    self.sites.append(f"{'.'.join(self.scope)}:{name}")
                self.generic_visit(node)

        sites = []
        for path, tree in self._trees():
            if path.is_relative_to(self.REPO / "src"):
                calls = Calls()
                calls.visit(tree)
                sites += [f"{path.relative_to(self.REPO)}:{site}" for site in calls.sites]
        assert sites == [
            "src/repro/serving/api/backends.py:Backend.__init__:ShardedKVStore",
            "src/repro/serving/api/backends.py:Backend.__init__:StorageNode",
        ]

    def test_the_removed_serving_layers_are_named_nowhere(self):
        this_file = Path(__file__).resolve()
        sites = []
        for path, tree in self._trees():
            for node in ast.walk(tree):
                names = {getattr(node, key, None) for key in ("id", "attr", "name", "arg")}
                if isinstance(node, ast.Constant) and path != this_file:
                    names.add(node.value)
                for removed in self.REMOVED:
                    if removed in names:
                        sites.append(f"{path.relative_to(self.REPO)}:{node.lineno}:{removed}")
        assert sites == []

    def test_nothing_reaches_through_a_backend_or_stages_on_one(self):
        """No ``.engine`` attribute (the ``repro.serving.engine`` module aside)
        and no ``.submit(`` call outside the GPU side."""
        sites = []
        for path, tree in self._trees():
            for node in ast.walk(tree):
                where = f"{path.relative_to(self.REPO)}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Attribute) and node.attr == "engine":
                    owner = node.value
                    if getattr(owner, "attr", getattr(owner, "id", None)) != "serving":
                        sites.append(f"{where}:{ast.unparse(node)}")
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit"
                    and ast.unparse(node.func.value) not in self.SUBMIT_RECEIVERS
                ):
                    sites.append(f"{where}:{ast.unparse(node.func)}")
        assert sites == []

    def test_the_removed_members_and_modules_are_gone(self, fitted_codec):
        from repro.serving.api.backends import Backend, Resolution

        for name in ("engine", "submit", "report", "_staged"):
            assert not hasattr(Backend, name)
        backend = build_backend(BASE, codec=fitted_codec())
        assert not {"engine", "_staged"} & set(vars(backend))
        assert "tier_read_s" not in {field.name for field in fields(Resolution)}
        serving = self.REPO / "src" / "repro" / "serving"
        assert not (serving / "pipeline.py").exists()
        assert not (serving / "concurrent" / "engine.py").exists()
