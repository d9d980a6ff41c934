"""Children that measure, and the parent that runs them one at a time.

A *child* is a fresh interpreter that sets one workload up, warms it, runs its
timed region once and prints one JSON line.  The *parent* never imports the
program: it spawns children sequentially (the box has two shared cores),
takes medians over the untraced ones, and reads per-layer numbers off a
single traced one.  End-to-end numbers never come from a traced child.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().with_name("run.py")
DEFAULT_SCRATCH = RUN_PY.with_name("_out")

#: Untraced children per measurement; each measures ``seconds / CHILDREN``.
CHILDREN = 3
CHILD_TIMEOUT_S = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Stems measured during set-up; every other stem is read off the timed region.
SETUP_STEMS = ("core.fit", "serving.api.build_backend")
#: Per-layer counts that must read zero on ``serve-steady``: the optional
#: layers are off there, and "disabled sites are free" is a prediction.
OPTIONAL_LAYER_PREFIXES = ("telemetry.", "simcheck.", "faults.")


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- child
def measure_once(
    name: str, seed: int, seconds: float, traced: bool, scratch: Path, spawned_at: float
) -> dict:
    """Set one workload up, warm it, time its region once; a child's result."""
    from .workloads import WORKLOADS

    recorder = None
    context = contextlib.nullcontext()
    if traced:
        from .tracing import SpanRecorder, tracing

        recorder = SpanRecorder()
        context = tracing(recorder)
    with context:
        workload = WORKLOADS[name](seed, seconds, scratch)
        workload.warm_up()
        if recorder is not None:
            recorder.enter_timed_region()
        setup_s = time.time() - spawned_at
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        outcome = workload.run()
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    workload.verify(outcome)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "inputs_sha256": workload.inputs_sha256,
        "configuration": workload.configuration(),
        "outputs": outcome.outputs,
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, outcome.outputs, wall_s)
        trace_path = scratch / f"{name}.host-trace.json"
        recorder.write_chrome_trace(trace_path)
        result["trace"] = str(trace_path)
    return result


def layer_metrics(recorder, outputs: dict, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of the contract, from spans, counts and outputs."""
    from .tracing import SETUP, TIMED, Totals

    names = [metric["name"] for metric in load_contract()["per_layer"]]
    metrics = dict.fromkeys(names, 0.0)
    timed = defaultdict(Totals, recorder.totals(TIMED))
    set_up = recorder.totals(SETUP)
    reported = {**timed, **{stem: set_up.get(stem, Totals()) for stem in SETUP_STEMS}}
    for stem, totals in reported.items():
        for suffix, value in (("_self_s", totals.self_s), ("_calls", totals.calls)):
            if stem + suffix in metrics:
                metrics[stem + suffix] = value

    def rate(amount: float, stem: str) -> float:
        total_s = timed[stem].total_s
        return amount / total_s if total_s > 0 else 0.0

    encode, decode = timed["core.arith_encode"], timed["core.arith_decode"]
    derived = {
        **recorder.counts,
        "core.arith_symbols": encode.work + decode.work,
        "core.arith_encode_sym_per_s": rate(encode.work, "core.arith_encode"),
        "core.arith_decode_sym_per_s": rate(decode.work, "core.arith_decode"),
        "core.encode_mb_per_s": rate(timed["core.encode"].work / 1e6, "core.encode"),
        "cluster.locate_per_s": rate(timed["cluster.locate"].calls, "cluster.locate"),
        "serving.concurrent.events_per_s": rate(
            recorder.counts["serving.concurrent.events_scheduled"],
            "serving.concurrent.sim_run",
        ),
        "harness.unattributed_s": wall_s - sum(t.self_s for t in timed.values()),
    }
    for name, value in {**derived, **outputs}.items():
        if name not in metrics:
            raise KeyError(f"{name} is measured but missing from BENCHMARK.json per_layer")
        metrics[name] = float(value)
    return metrics


# --------------------------------------------------------------------- parent
def run_child(name: str, seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    """Spawn one child, wait for it, and return its parsed result line."""
    command = [
        sys.executable, str(RUN_PY), "child",
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(traced)), "--scratch", str(scratch),
        "--spawned-at", repr(time.time()),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **THREAD_ENV}, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def end_to_end(children: list[dict]) -> dict[str, list[float]]:
    """The end-to-end metric values, one per untraced child."""
    return {
        "setup_s": [c["setup_s"] for c in children],
        "ops_per_s": [(c["attempted"] - c["failed"]) / c["wall_s"] for c in children],
        "cpu_ms_per_op": [1e3 * c["cpu_s"] / c["attempted"] for c in children],
        "peak_rss_mib": [c["peak_rss_mib"] for c in children],
    }


def broken_predictions(name: str, layers: dict[str, float]) -> list[str]:
    """Which of the zero-call ("bypass") predictions a traced run violates."""
    broken = []

    def expect(metric: str, holds: bool) -> None:
        if not holds:
            broken.append(f"{metric}={layers[metric]:g}")

    symbols = layers["core.arith_symbols"]
    expect("core.arith_symbols", symbols > 0 if name == "codec-exact" else symbols == 0)
    expect("core.roundtrip_mismatches", layers["core.roundtrip_mismatches"] == 0)
    if name == "ingest-churn":
        expect("serving.fleet.dispatch_calls", layers["serving.fleet.dispatch_calls"] == 0)
    if name == "serve-steady":
        for metric in layers:
            if metric.startswith(OPTIONAL_LAYER_PREFIXES) or metric in (
                "storage.evictions", "storage.demotions", "storage.promotions",
            ):
                expect(metric, layers[metric] == 0)
    return broken


def measure(
    name: str, seed: int, seconds: float, scratch: Path, untraced: int, traced: bool
) -> dict:
    """Run ``untraced`` plain children, then optionally a traced one.

    Returns the workload's record: end-to-end values (one per untraced child),
    per-layer metrics of the traced child, op counts, and ``correct`` — every
    child agreed on inputs and outputs, ``served + shed == offered`` held
    (no failed op), and no bypass prediction broke.
    """
    per_child_s = seconds / CHILDREN
    children = [run_child(name, seed, per_child_s, False, scratch) for _ in range(untraced)]
    record = {
        "workload": name,
        "seed": seed,
        "child_seconds": per_child_s,
        "configuration": children[0]["configuration"],
        "inputs_sha256": children[0]["inputs_sha256"],
        "digest": children[0]["digest"],
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "end_to_end": end_to_end(children),
        "timed_wall_s": [c["wall_s"] for c in children],
        "problems": [],
    }
    everyone = list(children)
    if traced:
        child = run_child(name, seed, per_child_s, True, scratch)
        everyone.append(child)
        layers = child["layers"]
        layers["harness.trace_overhead_ratio"] = child["wall_s"] / statistics.median(
            c["wall_s"] for c in children
        )
        layers["harness.failed_ops_ratio"] = record["failed"] / record["attempted"]
        record["per_layer"] = layers
        record["trace"] = child["trace"]
        record["problems"] += broken_predictions(name, layers)
    for key in ("inputs_sha256", "digest", "outputs"):
        if any(c[key] != everyone[0][key] for c in everyone):
            record["problems"].append(f"children disagree on {key}")
    if record["failed"]:
        record["problems"].append(f"{record['failed']} failed ops")
    record["correct"] = not record["problems"]
    return record
