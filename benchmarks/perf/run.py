"""Entry point of the host-time benchmark.

One workload, as the benchmark driver runs it (last line is the result JSON)::

    python3 benchmarks/perf/run.py --workload serve-steady --seed 1 --seconds 15 --trace 0

Everything, written to one JSON file with the host traces next to it::

    python3 benchmarks/perf/run.py --seed 1 --out perf.json

Two such files against each other (exit 1 if any metric got worse)::

    python3 benchmarks/perf/run.py compare A.json B.json

``python -m benchmarks.perf`` takes the same arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__:
    from . import harness, report
else:  # run as a script: make this package and the program importable
    _root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_root), str(_root / "src")]
    from benchmarks.perf import harness, report


def main(argv: list[str] | None = None) -> int:
    contract = harness.load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("mode", nargs="?", choices=("compare", "child"))
    parser.add_argument("files", nargs="*", type=Path, help="compare: A.json B.json")
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every workload's record here")
    parser.add_argument("--scratch", type=Path, default=harness.DEFAULT_SCRATCH)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.mode == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two result files")
        return report.compare(*args.files)
    if args.mode == "child":
        result = harness.measure_once(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scratch,
            args.spawned_at,
        )
        print(json.dumps(result))
        return 0

    info = report.header(args.seed)
    print(report.format_header(info))
    if args.workload is not None:
        # Driver mode: end-to-end metrics untraced, or per-layer metrics traced
        # (one plain child beside the traced one prices the tracing itself).
        traced = bool(args.trace)
        record = harness.measure(
            args.workload, args.seed, args.seconds, args.scratch,
            untraced=1 if traced else harness.CHILDREN, traced=traced,
        )
        print(report.format_record(record))
        print(report.result_line(record, traced))
        return 0

    scratch = args.out.parent if args.out is not None else args.scratch
    records = {}
    for name in names:
        records[name] = harness.measure(
            name, args.seed, args.seconds, scratch, untraced=harness.CHILDREN, traced=True
        )
        print(report.format_record(records[name]))
    document = {"header": info, "workloads": records}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        print(f"wrote {args.out}")
    print(json.dumps({name: record["correct"] for name, record in records.items()}))
    return 0 if all(record["correct"] for record in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
