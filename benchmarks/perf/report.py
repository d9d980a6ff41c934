"""Text and JSON reports of a measurement, and the A-versus-B comparison."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from .harness import ROOT, THREAD_ENV, load_contract

#: Units of numbers read off the host clock.  Everything else in the per-layer
#: list is a count or a simulated figure, and repeats exactly.
MEASURED_UNITS = frozenset({"s", "sym/s", "MB/s", "1/s", "x"})


def header(seed: int) -> dict[str, object]:
    """Where and on what the numbers were taken (versions, commit, threads)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "thread_env": THREAD_ENV,
    }


def format_header(info: dict[str, object]) -> str:
    lines = ["ENVIRONMENT:"]
    lines += [f" * {key} -> {value}" for key, value in info.items()]
    return "\n".join(lines)


def format_record(record: dict) -> str:
    """One icarus-style block: CONFIGURATION, then RESULTS grouped by layer."""
    contract = load_contract()
    lines = [
        f"WORKLOAD {record['workload']}:",
        "  CONFIGURATION:",
        f"   * seed -> {record['seed']}",
        f"   * size -> {record['child_seconds']:g} timed s per child at the seed commit",
    ]
    lines += [f"   * {key} -> {value}" for key, value in record["configuration"].items()]
    lines.append(f"   * inputs_sha256 -> {record['inputs_sha256']}")
    lines.append("  RESULTS:")
    lines.append("    CORRECTNESS")
    lines.append(f"     * correct: {record['correct']}")
    for problem in record["problems"]:
        lines.append(f"     * PROBLEM: {problem}")
    lines.append(
        f"     * ops attempted: {record['attempted']}  failed: {record['failed']}"
    )
    lines.append(f"     * result_sha256: {record['digest']}")
    values = record["end_to_end"]
    lines.append(f"    END_TO_END (median of {len(values['ops_per_s'])} untraced children)")
    for metric in contract["end_to_end"]:
        runs = values[metric["name"]]
        lines.append(
            f"     * {metric['name']}: {statistics.median(runs):.6g} {metric['unit']}"
            f"  (min {min(runs):.6g}, max {max(runs):.6g}; {metric['better']} is "
            f"better, bound {metric['bound']:.0%})"
        )
    walls = ", ".join(f"{wall:.3g}" for wall in record["timed_wall_s"])
    lines.append(f"     * timed region: {walls} s")
    layers = record.get("per_layer")
    if layers:
        units = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
        group = None
        for name in sorted(layers):
            layer = name.split(".", 1)[0].upper()
            if layer != group:
                group = layer
                lines.append(f"    {group}")
            lines.append(f"     * {name}: {layers[name]:.6g} {units[name]}")
        lines.append(f"    TRACE -> {record['trace']}")
    return "\n".join(lines)


def result_line(record: dict, traced: bool) -> str:
    """The driver's last line: correct / attempted / failed / metrics."""
    contract = load_contract()
    if traced:
        metrics = {
            metric["name"]: {
                "value": record["per_layer"][metric["name"]], "unit": metric["unit"],
            }
            for metric in contract["per_layer"]
        }
    else:
        metrics = {
            metric["name"]: {
                "value": statistics.median(record["end_to_end"][metric["name"]]),
                "unit": metric["unit"],
            }
            for metric in contract["end_to_end"]
        }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


# -------------------------------------------------------------------- compare
def _verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for B against A on one metric."""
    lower = better == "lower"
    median_a, median_b = statistics.median(a), statistics.median(b)
    spread = max((max(runs) - min(runs)) / statistics.median(runs) for runs in (a, b))
    if spread > bound:
        # Too noisy to call, unless every run of B beats every run of A.
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "ok" if all_better else "unresolved"
    worsening = (median_b - median_a) / median_a * (1.0 if lower else -1.0)
    return "worse" if worsening > bound else "ok"


def compare(path_a: Path, path_b: Path) -> int:
    """Print B against A, one row per (metric, workload); 1 if any is worse."""
    contract = load_contract()
    with path_a.open(encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with path_b.open(encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    units = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
    worse = False
    print(f"{'metric':<16}{'workload':<22}{'A median':>14}{'B median':>14}{'bound':>8}  verdict")
    for metric in contract["end_to_end"]:
        for name in sorted(set(a) & set(b)):
            runs_a = a[name]["end_to_end"][metric["name"]]
            runs_b = b[name]["end_to_end"][metric["name"]]
            verdict = _verdict(runs_a, runs_b, metric["better"], metric["bound"])
            worse |= verdict == "worse"
            print(
                f"{metric['name']:<16}{name:<22}{statistics.median(runs_a):>14.6g}"
                f"{statistics.median(runs_b):>14.6g}{metric['bound']:>8.0%}  {verdict}"
            )
    print("exact-repeat outputs that differ (listed, not judged):")
    for name in sorted(set(a) & set(b)):
        if a[name]["digest"] != b[name]["digest"]:
            print(f" * {name}: result_sha256 {a[name]['digest'][:12]} -> {b[name]['digest'][:12]}")
        layers_a, layers_b = a[name].get("per_layer", {}), b[name].get("per_layer", {})
        for metric in sorted(set(layers_a) & set(layers_b)):
            if units.get(metric) in MEASURED_UNITS:
                continue
            if layers_a[metric] != layers_b[metric]:
                print(f" * {name}: {metric} {layers_a[metric]:g} -> {layers_b[metric]:g}")
    return 1 if worse else 0
