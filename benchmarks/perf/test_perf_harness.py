"""The harness checked at toy size: names, metrics, digests, bypass predictions.

Runs every workload in this process, once plain and once traced, at a size of
a fraction of a second.  Nothing here asserts a speed.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from . import harness, report, tracing, workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TOY_SECONDS = 0.03


@pytest.fixture(scope="module")
def contract():
    return harness.load_contract()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{workload: (plain result, traced result)}`` at toy size.

    A serving warm-up builds a second, throwaway backend (about a second); to
    stay in budget only one is run here, that of the workload whose warm-up
    does the most.
    """
    scratch = tmp_path_factory.mktemp("perf")
    originals = {name: tracing.resolve(target) for name, target in _targets().items()}
    results = {}
    warm_up = workloads._Serving.warm_up
    warmed = []

    def warm_up_once(self):
        if self.name == "serve-chaos-observed" and not warmed:
            warmed.append(self.name)
            warm_up(self)

    patcher = pytest.MonkeyPatch()
    patcher.setattr(workloads._Serving, "warm_up", warm_up_once)
    try:
        for name in workloads.WORKLOADS:
            results[name] = tuple(
                harness.measure_once(name, 1, TOY_SECONDS, traced, scratch, time.time())
                for traced in (False, True)
            )
    finally:
        patcher.undo()
    results["originals"] = originals
    return results


def _targets():
    return {f"{t.module}.{t.owner}.{t.attr}": t for t in tracing.TARGETS}


def test_contract_names_and_workloads(contract):
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])


def test_every_workload_emits_every_metric(contract, runs):
    for name in workloads.WORKLOADS:
        plain, traced = runs[name]
        values = harness.end_to_end([plain])
        assert set(values) == {m["name"] for m in contract["end_to_end"]}
        assert all(v[0] > 0 for v in values.values()), (name, values)
        assert set(traced["layers"]) | {
            "harness.trace_overhead_ratio", "harness.failed_ops_ratio",
        } == {m["name"] for m in contract["per_layer"]}
        assert plain["attempted"] >= 1 and plain["failed"] == 0


def test_digests_repeat_and_wrappers_change_nothing(runs):
    for name in workloads.WORKLOADS:
        plain, traced = runs[name]
        for key in ("digest", "inputs_sha256", "outputs", "attempted"):
            assert plain[key] == traced[key], (name, key)


def test_another_seed_gives_other_inputs(tmp_path):
    one = workloads.CodecExact(1, TOY_SECONDS, tmp_path)
    two = workloads.CodecExact(2, TOY_SECONDS, tmp_path)
    assert one.inputs_sha256 != two.inputs_sha256


def test_bypass_predictions_hold(runs):
    for name in workloads.WORKLOADS:
        layers = runs[name][1]["layers"]
        assert harness.broken_predictions(name, layers) == []
        assert (layers["core.arith_symbols"] > 0) == (name == "codec-exact")
    steady = runs["serve-steady"][1]["layers"]
    optional = [m for m in steady if m.startswith(harness.OPTIONAL_LAYER_PREFIXES)]
    assert optional and all(steady[m] == 0 for m in optional)
    chaos = runs["serve-chaos-observed"][1]["layers"]
    assert chaos["telemetry.spans_recorded"] > 0 and chaos["faults.apply_self_s"] > 0
    assert runs["ingest-churn"][1]["layers"]["serving.fleet.dispatch_calls"] == 0
    assert steady["serving.fleet.dispatch_calls"] > 0


def test_trace_accounts_for_the_timed_region(runs):
    for name in workloads.WORKLOADS:
        traced = runs[name][1]
        assert 0 <= traced["layers"]["harness.unattributed_s"] < 0.15 * traced["wall_s"]
        with open(traced["trace"], encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        assert events and all(event["dur"] >= 0 for event in events)


def test_wrapped_callables_are_restored(runs):
    for name, target in _targets().items():
        assert tracing.resolve(target) is runs["originals"][name], name


def test_broken_prediction_is_reported(runs):
    layers = dict(runs["serve-steady"][1]["layers"], **{"core.arith_symbols": 3.0})
    assert harness.broken_predictions("serve-steady", layers) == ["core.arith_symbols=3"]


def _document(ops_per_s, digest="d"):
    values = {
        "setup_s": [1.0, 1.0, 1.0],
        "ops_per_s": ops_per_s,
        "cpu_ms_per_op": [5.0, 5.0, 5.0],
        "peak_rss_mib": [100.0, 100.0, 100.0],
    }
    record = {"end_to_end": values, "digest": digest, "per_layer": {"storage.evictions": 1.0}}
    return {"workloads": {"serve-steady": record}}


@pytest.mark.parametrize(
    ("ops_per_s", "verdict", "code"),
    [
        ([100.0, 101.0, 102.0], "ok", 0),
        ([50.0, 50.5, 51.0], "worse", 1),
        ([60.0, 101.0, 140.0], "unresolved", 0),
        ([200.0, 300.0, 400.0], "ok", 0),
    ],
)
def test_compare(tmp_path, capsys, ops_per_s, verdict, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document([100.0, 101.0, 102.0])))
    b.write_text(json.dumps(_document(ops_per_s, digest="e")))
    assert report.compare(a, b) == code
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("ops_per_s"))
    assert row.split()[-1] == verdict
    assert "result_sha256" in out
