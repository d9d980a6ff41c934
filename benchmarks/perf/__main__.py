"""``python -m benchmarks.perf`` — same arguments as ``run.py``."""

import sys

from .run import main

sys.exit(main())
