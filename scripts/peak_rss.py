#!/usr/bin/env python
"""Run a command as a child process and report its peak resident memory.

    PYTHONPATH=src python scripts/peak_rss.py python -m repro.experiments all --out artifacts

Prints one line after the child exits: the peak resident set size of the
largest process it waited for (``getrusage(RUSAGE_CHILDREN).ru_maxrss``, KiB
on Linux) in MiB, the minor page faults of all of them (``ru_minflt``: memory
that is freed and mapped again instead of reused shows here, not in the
peak), and the wall time.  The child's exit status is passed through.  It is
a report, not a gate: nothing is compared with a threshold.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    status = subprocess.call(argv)
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(
        f"peak RSS {usage.ru_maxrss / 1024:.0f} MiB, minor faults {usage.ru_minflt}, "
        f"wall {wall_s:.0f} s: {' '.join(argv)}"
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
