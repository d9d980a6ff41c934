#!/usr/bin/env python
"""Gate the benchmark suite on a committed baseline.

The ``ledger`` job in CI produces ``benchmark-results.json`` (pytest-benchmark's
JSON output: one entry per experiment, run at its default settings).  This
script compares every benchmark's mean wall-clock time against
``benchmarks/baseline.json`` and fails when one regresses beyond the
tolerance, so a slow serving path cannot land silently.  Benchmarks that
disappear from the results also fail (a deleted benchmark must update the
baseline deliberately); new benchmarks that are not in the baseline yet only
warn.

Refresh the baseline from a trusted run with::

    PYTHONPATH=src python -m pytest -m ledger benchmarks -q --benchmark-json=benchmark-results.json
    python benchmarks/check_regressions.py benchmark-results.json --refresh

The committed baseline stores means from one reference machine, so the check
uses a generous relative tolerance (CI hardware varies run to run); it exists
to catch the 2x-and-worse regressions that indicate an accidental algorithmic
slowdown, not 5% noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baseline.json"
#: Means below this are timer noise on any machine; never flagged.
MIN_SECONDS = 0.05


def load_means(results_path: Path) -> dict[str, float]:
    """Benchmark name -> mean seconds from a pytest-benchmark JSON file."""
    data = json.loads(results_path.read_text())
    return {
        bench["fullname"]: float(bench["stats"]["mean"])
        for bench in data.get("benchmarks", [])
    }


def refresh(results_path: Path, baseline_path: Path) -> int:
    means = load_means(results_path)
    if not means:
        print(f"error: no benchmarks found in {results_path}", file=sys.stderr)
        return 1
    baseline_path.write_text(
        json.dumps({"mean_seconds": dict(sorted(means.items()))}, indent=2) + "\n"
    )
    print(f"wrote {baseline_path} with {len(means)} benchmarks")
    return 0


def compare(results_path: Path, baseline_path: Path, tolerance: float) -> int:
    if not baseline_path.exists():
        print(f"error: baseline {baseline_path} not found; run with --refresh first",
              file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())["mean_seconds"]
    means = load_means(results_path)

    failures: list[str] = []
    for name, reference in sorted(baseline.items()):
        mean = means.get(name)
        if mean is None:
            failures.append(f"MISSING   {name} (in baseline, absent from results)")
            continue
        limit = max(reference * tolerance, MIN_SECONDS)
        status = "REGRESSED" if mean > limit else "ok"
        print(f"{status:<9} {name}: {mean:.3f}s (baseline {reference:.3f}s, "
              f"limit {limit:.3f}s)")
        if mean > limit:
            failures.append(f"REGRESSED {name}: {mean:.3f}s > {limit:.3f}s")
    for name in sorted(set(means) - set(baseline)):
        print(f"NEW       {name}: {means[name]:.3f}s (not in baseline; "
              f"refresh to start tracking it)")

    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} tracked benchmarks within {tolerance:.1f}x of baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when a mean exceeds baseline * tolerance (default 2.0)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="rewrite the baseline from these results instead of comparing",
    )
    args = parser.parse_args(argv)
    if args.refresh:
        return refresh(args.results, args.baseline)
    return compare(args.results, args.baseline, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
