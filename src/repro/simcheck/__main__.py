"""CLI for the simcheck determinism lint and race-detector smoke.

Usage::

    python -m repro.simcheck src/repro                  # lint vs the baseline
    python -m repro.simcheck src/repro --write-baseline # refresh the baseline
    python -m repro.simcheck --race-smoke               # figure12 + default-spec order check
    python -m repro.simcheck --chaos-smoke              # faulted-spec order check

Exit status: 0 clean, 1 new violations (or an order-dependent smoke run),
2 usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .lint import (
    ALL_RULES,
    apply_baseline,
    lint_paths,
    load_baseline,
    write_baseline,
)

DEFAULT_BASELINE = "simcheck-baseline.json"

_FAILURE_HELP = """\
New simcheck violations (not in the baseline). Either:
  * fix them (preferred — each message says what breaks determinism),
  * suppress intentional ones in place:  # simcheck: ignore[SIMxxx]  # why
  * or refresh the committed baseline and review the diff:
        python -m repro.simcheck src/repro --write-baseline
    then commit the updated {baseline}."""


def _run_race_smoke(out=sys.stderr) -> int:
    """Order-independence smoke: the figure12 shape, then a default spec under overlap."""
    from ..serving.api.spec import ServingSpec
    from ..serving.api.types import ServeRequest
    from .race import check_spec_order_independence

    shapes = {
        # One shared context, n simultaneous arrivals over one link and a
        # GPU worker pool.
        "figure12 concurrency spec": (
            ServingSpec(gpu_workers=2),
            [
                ServeRequest("figure12-context", "smoke?", arrival_s=0.0, num_tokens=640)
                for _ in range(6)
            ],
        ),
        # Nothing declared: three contexts whose loads overlap on the one
        # link and the one GPU.  Arrivals are distinct — which of two tied,
        # different requests goes first is the tie-break's to decide.
        "default spec, overlapping arrivals": (
            ServingSpec(),
            [
                ServeRequest(f"smoke-ctx-{i % 3}", "smoke?", arrival_s=0.02 * i, num_tokens=640)
                for i in range(8)
            ],
        ),
    }
    status = 0
    for label, (spec, requests) in shapes.items():
        report = check_spec_order_independence(spec, requests, seeds=(1, 2))
        print(f"race smoke ({label}): {report.describe()}", file=out)
        status |= int(report.order_dependent)
    return status


def _run_chaos_smoke(out=sys.stderr) -> int:
    """Order-independence smoke on a faulted, resilience-enabled cluster spec.

    Chaos runs must be exactly as order-independent as healthy ones: the
    fault schedule is keyed on the simulated clock and the retry jitter on
    the context id, so perturbed same-timestamp tie-breaks may not change the
    multiset of outcomes.
    """
    import warnings

    from ..faults import FaultSchedule, NodeCrash, ResiliencePolicy
    from ..serving.api.spec import ServingSpec
    from ..serving.api.types import ServeRequest
    from .race import check_spec_order_independence

    spec = ServingSpec(
        topology="cluster",
        num_nodes=3,
        replication=2,
        resilience=ResiliencePolicy(),
    )
    requests = [
        ServeRequest(f"chaos-ctx-{i % 4}", "smoke?", arrival_s=0.4 * i, num_tokens=640)
        for i in range(12)
    ]
    faults = FaultSchedule([NodeCrash("node-0", at_s=1.0, recover_at_s=3.5)])
    with warnings.catch_warnings():
        # The driver's one-shot segment-boundary warning is expected here.
        warnings.simplefilter("ignore")
        report = check_spec_order_independence(
            spec, requests, seeds=(1, 2), faults=faults
        )
    print(f"chaos smoke (faulted cluster spec): {report.describe()}", file=out)
    return 1 if report.order_dependent else 0


def main(argv: list[str] | None = None, out=sys.stderr) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simcheck",
        description="Determinism lint (SIM001-SIM005) for simulation code.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories to lint"
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered violations (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every violation, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current violations to the baseline file and exit clean",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--race-smoke",
        action="store_true",
        help="run the event-order race detector on a figure12 spec and a default spec",
    )
    parser.add_argument(
        "--chaos-smoke",
        action="store_true",
        help="run the race detector on a faulted, resilience-enabled cluster spec",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also list baseline-matched violations"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  [{rule.severity:7s}]  {rule.description}", file=out)
        return 0

    if args.race_smoke:
        return _run_race_smoke(out=out)

    if args.chaos_smoke:
        return _run_chaos_smoke(out=out)

    select = (
        {part.strip() for part in args.select.split(",") if part.strip()}
        if args.select
        else None
    )
    violations = lint_paths(args.paths, select=select)

    if args.write_baseline:
        counts = write_baseline(args.baseline, violations)
        print(
            f"wrote {sum(counts.values())} violation(s) "
            f"({len(counts)} fingerprint(s)) to {args.baseline}",
            file=out,
        )
        return 0

    baseline = {} if args.no_baseline else load_baseline(args.baseline)
    new, stale = apply_baseline(violations, baseline)

    for violation in new:
        print(violation.format(), file=out)
    if args.verbose:
        matched = len(violations) - len(new)
        print(f"{matched} baseline-matched violation(s) suppressed", file=out)
    if stale:
        print(
            f"note: {len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'} "
            "no longer match (debt was fixed); refresh with --write-baseline",
            file=out,
        )
    if new:
        print(file=out)
        print(_FAILURE_HELP.format(baseline=args.baseline), file=out)
        return 1
    checked = len(violations)
    print(
        f"simcheck clean: {checked} violation(s), all baseline-matched"
        if checked
        else "simcheck clean: no violations",
        file=out,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
