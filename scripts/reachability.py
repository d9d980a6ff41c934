#!/usr/bin/env python
"""Which functions of ``src/repro`` no entry point runs.

Runs the repository's entry points in this one process under a call-only
trace (``sys.settrace`` plus ``threading.settrace``; no line events), then
walks the ``ast`` of ``src/repro`` and prints every *outermost* function whose
code was never entered: an unreached function nested in an unreached one is
one finding, not two.  The entry points are what CI runs:

* every experiment at its defaults (``experiments all``), ``verify`` on the
  ledger that wrote, and the ledger job's checks (rows equal to
  ``benchmarks/ledger.json``, then each figure's ``CHECKS``);
* the traced Figure 12 export;
* the four host-time benchmark workloads, untraced and traced, in-process at
  seed 1 and CI's ``--seconds 3`` (their sizes depend on those two numbers
  only, so the set of entered functions does not depend on the machine);
* every example and the README sections CI executes, under ``REPRO_SMOKE=1``;
* the simcheck lint (and ``--write-baseline``, into a scratch file), race
  smoke and chaos smoke, and ``build_profiles.py --check``;
* the inline ``python -c`` checks of ``.github/workflows/ci.yml``, each in a
  fresh interpreter under the same recorder, as CI runs them.

A decorated function counts from its first decorator line (where its code
object starts).  A body of only a docstring plus ``...``, ``pass`` or
``raise NotImplementedError`` is a declaration (a ``Protocol`` method) and is
never reported.

``--check ALLOWLIST`` exits 1 when the unreached functions and the allow-list
disagree: an unreached function is not listed, an entry is stale (reached now,
or no longer defined), or the ``pinned`` group is not exactly the unreached
callables ``benchmarks.perf.tracing.TARGETS`` names, with the unreached
functions they call by name in their own module.  Every target must also be defined on its
own owner, because the tracer resolves it with ``vars(owner)[attr]``: a
deleted or merely inherited target breaks every traced benchmark run.  The
whole run takes about five minutes on two cores::

    PYTHONPATH=src python scripts/reachability.py
    PYTHONPATH=src python scripts/reachability.py --check reachability-allowlist.json
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
#: The README sections whose python blocks CI executes (the ``docs`` job).
README_SECTIONS = (
    "Fleet serving & autoscaling",
    "Resilience: fault injection & self-healing",
    "The unified serving API",
    "Storage hierarchy (hot / cold tiers)",
)
#: The allow-list group that ``benchmarks.perf.tracing.TARGETS`` decides.
PINNED = "pinned"


@dataclass(frozen=True)
class Definition:
    """One ``def`` of the package, as the ``ast`` sees it."""

    #: ``module:qualname``, e.g. ``repro.storage.kv_store:KVCacheStore.store_kv``.
    name: str
    path: str
    #: Where its code object starts: the first decorator line, if any.
    first_line: int
    last_line: int
    #: Its body only declares it (docstring plus ``...``/``pass``/``raise NotImplementedError``).
    declaration: bool
    #: The ``name`` of the function it is defined in, if any.
    parent: str | None
    #: ``module:name`` of every module-level function it calls by bare name.
    calls: frozenset[str] = frozenset()

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1


def _is_declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        if isinstance(body[0].value.value, str):
            body = body[1:]
    if len(body) != 1:
        return not body
    (statement,) = body
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    return False


def definitions(root: Path) -> list[Definition]:
    """Every function and method defined under ``root`` (a package directory)."""
    found: list[Definition] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root.parent).with_suffix("")
        parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
        module = ".".join(parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, scope: tuple[str, ...], parent: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{module}:{'.'.join((*scope, child.name))}"
                    calls = frozenset(
                        f"{module}:{call.func.id}"
                        for call in ast.walk(child)
                        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    )
                    found.append(
                        Definition(
                            name,
                            str(path),
                            min([child.lineno, *(d.lineno for d in child.decorator_list)]),
                            child.end_lineno or child.lineno,
                            _is_declaration(child),
                            parent,
                            calls,
                        )
                    )
                    visit(child, (*scope, child.name), name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, (*scope, child.name), parent)
                else:
                    visit(child, scope, parent)

        visit(tree, (), None)
    return found


def unreached(defined: list[Definition], entered: set[tuple[str, int]]) -> list[Definition]:
    """The outermost definitions whose code never ran, declarations aside."""
    missed = {
        d.name
        for d in defined
        if not d.declaration and (os.path.realpath(d.path), d.first_line) not in entered
    }
    by_name = {d.name: d for d in defined}

    def inside_missed(d: Definition) -> bool:
        parent = d.parent
        while parent is not None:
            if parent in missed:
                return True
            parent = by_name[parent].parent
        return False

    return [d for d in defined if d.name in missed and not inside_missed(d)]


# ----------------------------------------------------------------- the run
@contextlib.contextmanager
def recording(entered: set[tuple[str, int]]) -> Iterator[None]:
    """Record ``(file, first line)`` of every code object called in the block."""

    def on_call(frame, event, arg):  # a global trace function sees "call" events only
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]


def _expect_zero(label: str, status: object) -> None:
    if status not in (0, None):
        raise SystemExit(f"entry point failed: {label} (exit status {status})")


def _run_script(path: Path, *argv: str) -> None:
    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        _expect_zero(str(path.relative_to(REPO_ROOT)), stop.code)
    finally:
        sys.argv = saved


def _simcheck(label: str, argv: list[str]) -> None:
    from repro.simcheck.__main__ import main

    _expect_zero(label, main(argv))


def ci_inline_checks(workflow: str) -> list[tuple[str, str]]:
    """``(step name, code)`` of every ``run: >`` step that is one ``python -c``."""
    checks = []
    pattern = re.compile(r"- name: (.+)\n(?: +#.*\n)* +run: >\n((?: {10,}.+\n)+)")
    prefix = 'PYTHONPATH=src python -c "'
    for match in pattern.finditer(workflow):
        command = " ".join(line.strip() for line in match.group(2).splitlines())
        if command.startswith(prefix) and command.endswith('"'):
            checks.append((match.group(1).strip(), command[len(prefix) : -1]))
    return checks


#: Runs ``argv[2]`` under the call recorder; writes what it entered to ``argv[1]``.
_FRESH = """
import json, sys, threading
entered = set()
def on_call(frame, event, arg):
    entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.settrace(on_call)
threading.settrace(on_call)
try:
    exec(compile(sys.argv[2], "<ci>", "exec"), {})
finally:
    sys.settrace(None)
    with open(sys.argv[1], "w") as handle:
        json.dump(sorted(entered), handle)
"""


def _run_fresh(code: str, entered: set[tuple[str, int]], scratch: Path) -> None:
    """Run ``code`` in a fresh interpreter, as CI does, and merge what it entered."""
    out = scratch / "fresh-entered.json"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT.parent)}
    subprocess.run([sys.executable, "-c", _FRESH, str(out), code], env=env, check=True)
    entered.update(map(tuple, json.loads(out.read_text())))


def entry_points(
    scratch: Path, entered: set[tuple[str, int]]
) -> Iterator[tuple[str, Callable[[], object]]]:
    """``(label, thunk)`` for each entry point; a thunk raises if it fails."""
    # CI runs these in interpreters of their own: they check what a fresh
    # process loads and holds.
    for name, code in ci_inline_checks(CI_WORKFLOW.read_text(encoding="utf-8")):
        yield f"ci: {name}", functools.partial(_run_fresh, code, entered, scratch)
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks import test_ledger
    from benchmarks.perf.harness import measure_once
    from benchmarks.perf.workloads import WORKLOADS
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.common import experiment_cli
    from repro.experiments.ledger import diff_entry, ledger_entry, verify_ledger, write_artifacts

    results: dict[str, object] = {}

    def once(name: str, run):
        # verify and the ledger checks run each experiment again; hand them
        # the result `all` computed.
        @functools.wraps(run)  # the ledger reads the settings off run's signature
        def cached():
            if name not in results:
                results[name] = run()
            return results[name]

        return cached

    experiments = {name: once(name, run) for name, run in ALL_EXPERIMENTS.items()}
    artifacts = scratch / "artifacts"
    yield "experiments all", lambda: write_artifacts(artifacts, experiments)
    yield "experiments verify", lambda: verify_ledger(artifacts / "ledger.json", experiments)

    def ledger_job() -> None:
        reference = json.loads((REPO_ROOT / "benchmarks" / "ledger.json").read_text())
        for name, run in experiments.items():
            moves = diff_entry(reference["experiments"][name], ledger_entry(run, run()))
            if moves:
                raise SystemExit(f"{name} moved against benchmarks/ledger.json: {moves}")
            test_ledger.CHECKS[name](run())

    yield "ledger job checks", ledger_job
    yield "figure12-concurrency, traced export", functools.partial(
        experiment_cli,
        [
            "figure12-concurrency",
            *("--trace-out", str(scratch / "trace.json")),
            *("--trace-jsonl", str(scratch / "trace.jsonl")),
            *("--metrics-out", str(scratch / "metrics.json")),
            *("--dashboard-out", str(scratch / "dashboard.html")),
            *("--slo-ttft-s", "1.0"),
        ],
    )
    for workload in WORKLOADS:
        for traced in (False, True):
            yield f"perf {workload} (trace {int(traced)})", functools.partial(
                measure_once, workload, 1, 3.0, traced, scratch / "perf", time.time()
            )
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        argv = (str(scratch / "chaos.json"),) if script.name == "chaos_serving.py" else ()
        yield f"examples/{script.name}", functools.partial(_run_script, script, *argv)
    for section in README_SECTIONS:
        yield f"README {section!r}", functools.partial(
            _run_script, REPO_ROOT / "scripts" / "run_readme_snippets.py", "--section", section
        )
    lint = [str(PACKAGE_ROOT), "--baseline"]
    for label, argv in (
        ("simcheck lint", [*lint, str(REPO_ROOT / "simcheck-baseline.json")]),
        ("simcheck --write-baseline", [*lint, str(scratch / "baseline.json"), "--write-baseline"]),
        ("simcheck race smoke", ["--race-smoke"]),
        ("simcheck chaos smoke", ["--chaos-smoke"]),
    ):
        yield label, functools.partial(_simcheck, label, argv)
    yield "build_profiles --check", functools.partial(
        _run_script, REPO_ROOT / "scripts" / "build_profiles.py", "--check"
    )


def run_entry_points() -> set[tuple[str, int]]:
    """``(real path, first line)`` of every code object the entry points entered."""
    os.environ["REPRO_SMOKE"] = "1"
    entered: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        points = entry_points(Path(scratch), entered)
        while True:
            # The generator's own imports run traced too: module bodies count.
            with recording(entered):
                step = next(points, None)
            if step is None:
                break
            label, thunk = step
            started = time.perf_counter()
            with recording(entered), contextlib.redirect_stdout(io.StringIO()):
                thunk()
            print(f"ran {label} ({time.perf_counter() - started:.0f} s)", file=sys.stderr)
    return {(os.path.realpath(path), line) for path, line in entered}


# ---------------------------------------------------------------- the check
def tracer_targets() -> set[str]:
    """``module:Owner.attr`` of every callable the host-time tracer patches."""
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.perf.tracing import TARGETS

    return {
        f"{t.module}:{t.attr if t.owner is None else f'{t.owner}.{t.attr}'}" for t in TARGETS
    }


def pinned(missed: list[Definition], targets: set[str]) -> set[str]:
    """The unreached functions the tracer needs: its unreached targets and the
    unreached functions those call."""
    by_name = {d.name: d for d in missed}
    needed: set[str] = set()
    todo = [name for name in targets if name in by_name]
    while todo:
        name = todo.pop()
        if name not in needed:
            needed.add(name)
            todo += [callee for callee in by_name[name].calls if callee in by_name]
    return needed


def check(
    missed: list[Definition], defined: list[Definition], allowlist: dict, targets: Iterable[str]
) -> list[str]:
    """Every way the unreached set and the allow-list disagree; empty when clean."""
    groups: dict[str, str] = allowlist["groups"]
    entries: dict[str, str] = allowlist["entries"]
    targets = set(targets)
    defined_names = {d.name for d in defined}
    needed = pinned(missed, targets)
    problems = [
        f"TARGETS names {name}, which is not defined on its owner"
        for name in sorted(targets - defined_names)
    ]
    for d in missed:
        group = entries.get(d.name)
        where = f"{d.path}:{d.first_line}, {d.lines} lines"
        if d.name in needed and group != PINNED:
            problems.append(f"{d.name} ({where}) is pinned by TARGETS but not in group {PINNED!r}")
        elif group is None:
            problems.append(f"unreached: {d.name} ({where}) is not allow-listed")
    missed_names = {d.name for d in missed}
    for name, group in sorted(entries.items()):
        if name not in defined_names:
            problems.append(f"stale entry: {name} is no longer defined")
        elif name not in missed_names:
            problems.append(f"stale entry: {name} is reached now")
        elif group == PINNED and name not in needed:
            problems.append(f"pinned entry {name} is not named by TARGETS")
        if not groups.get(group):
            problems.append(f"entry {name}: group {group!r} has no reason")
    return problems


def report(missed: list[Definition]) -> str:
    lines = [f"{d.name}  {d.path}:{d.first_line}  {d.lines} lines" for d in missed]
    lines.append(
        f"{len(missed)} outermost unreached functions, {sum(d.lines for d in missed)} lines"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="ALLOWLIST",
        help="exit 1 unless the unreached functions are exactly this allow-list's",
    )
    args = parser.parse_args(argv)
    entered = run_entry_points()
    defined = definitions(PACKAGE_ROOT)
    missed = unreached(defined, entered)
    print(report(missed))
    if args.check is None:
        return 0
    allowlist = json.loads(args.check.read_text(encoding="utf-8"))
    problems = check(missed, defined, allowlist, tracer_targets())
    for problem in problems:
        print(problem)
    print(f"reachability: {len(problems)} problem(s)" if problems else "reachability clean")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
