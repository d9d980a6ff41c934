"""AST determinism lint for the event simulation (rules SIM001–SIM005).

The reproduction's headline guarantee — replaying a
:class:`~repro.serving.api.spec.ServingSpec` through the
:class:`~repro.serving.concurrent.events.SimClock` event loop is bit-for-bit
deterministic — dies by a thousand small cuts: a stray ``time.perf_counter``
here, an unseeded ``random.random`` there, a ``for node in node_set`` whose
order depends on ``PYTHONHASHSEED``.  This module walks Python source with
:mod:`ast` and flags those hazards mechanically:

``SIM001``
    Wall-clock reads (``time.time``/``perf_counter``/``monotonic``,
    ``datetime.now``/``utcnow``, ``date.today``).  Simulated code must take
    time from the clock it is handed, never from the host.
``SIM002``
    Module-level / unseeded RNG: ``random.<fn>`` on the global generator,
    legacy ``np.random.<fn>`` module calls, and ``random.Random()`` /
    ``np.random.default_rng()`` without a seed.  Randomness must come from an
    injected, explicitly seeded generator.
``SIM003``
    Iteration over ``set``/``frozenset`` values (``for`` loops, comprehension
    generators, ``list()``/``tuple()``/``enumerate()``/``iter()`` over a set).
    Set order follows the hash seed, so any scheduling or dispatch decision it
    feeds is unreproducible.  ``dict`` iteration is insertion-ordered in
    modern Python and therefore allowed.  Order-insensitive consumers
    (``sorted``/``min``/``max``/``len``/``any``/``all``/``set``/``frozenset``)
    are exempt.
``SIM004``
    ``==``/``!=`` between values that look like float simulated timestamps
    (names ending ``_s``/``_time``/``_ts``/``_at``/``_deadline`` or named
    ``now``).  Accumulated float time must be compared with a tolerance.
    Comparisons against literal ``0``/``None`` sentinels are exempt.
``SIM005``
    Mutable default arguments (``def f(x, acc=[])``) — shared across calls,
    so one run's state leaks into the next.

Each violation carries ``path:line:col``, a severity, and honours per-line
``# simcheck: ignore[SIM001]`` (or bare ``# simcheck: ignore``) suppressions.
A committed JSON baseline (:func:`load_baseline` / :func:`write_baseline`)
keeps existing debt visible while failing only *new* violations.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "LintViolation",
    "Rule",
    "ALL_RULES",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_IGNORE_RE = re.compile(r"#\s*simcheck:\s*ignore(?:\[([A-Za-z0-9,\s]+)\])?")


@dataclass(frozen=True)
class LintViolation:
    """One rule hit at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    source: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used for baseline matching."""
        return f"{self.path}::{self.rule}::{self.source.strip()}"


class Rule:
    """Base class for lint rules: subclass and implement :meth:`visit`."""

    rule_id = "SIM000"
    severity = SEVERITY_ERROR
    description = ""

    def visit(self, tree: ast.AST, ctx: "_ModuleContext") -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError


class _ModuleContext:
    """Per-module facts shared by rules: import aliases and set-typed names."""

    def __init__(self, tree: ast.AST) -> None:
        #: local alias -> fully qualified module ("np" -> "numpy").
        self.module_aliases: dict[str, str] = {}
        #: local name -> "module.attr" for ``from module import attr``.
        self.from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_call(self, func: ast.expr) -> str | None:
        """Resolve a call target to a dotted name, following import aliases.

        ``time.perf_counter`` with ``import time`` -> ``time.perf_counter``;
        ``perf_counter`` with ``from time import perf_counter`` -> same;
        ``np.random.rand`` with ``import numpy as np`` -> ``numpy.random.rand``.
        Unresolvable targets return ``None``.
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = parts[0]
        if head in self.module_aliases:
            parts[0] = self.module_aliases[head]
        elif head in self.from_imports:
            parts[0] = self.from_imports[head]
        return ".".join(parts)


# --------------------------------------------------------------------- SIM001
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    rule_id = "SIM001"
    severity = SEVERITY_ERROR
    description = "wall-clock read in simulation code (use the injected SimClock)"

    def visit(self, tree: ast.AST, ctx: _ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target in _WALL_CLOCK_CALLS:
                yield node, f"call to {target}() reads the host clock"


# --------------------------------------------------------------------- SIM002
_GLOBAL_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "random_sample",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "triangular",
    "getrandbits",
    "randbytes",
    "rand",
    "randn",
    "seed",
}


class UnseededRngRule(Rule):
    rule_id = "SIM002"
    severity = SEVERITY_ERROR
    description = "module-level or unseeded RNG (inject a seeded random.Random)"

    def visit(self, tree: ast.AST, ctx: _ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target is None:
                continue
            if target in ("random.Random", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    yield node, f"{target}() without a seed is nondeterministic"
                continue
            parts = target.split(".")
            if (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _GLOBAL_RANDOM_FNS
            ):
                yield node, (
                    f"{target}() uses the process-global generator; "
                    "inject a seeded random.Random instead"
                )
            elif (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in _GLOBAL_RANDOM_FNS
            ):
                yield node, (
                    f"{target}() uses the legacy global numpy generator; "
                    "use numpy.random.default_rng(seed) instead"
                )


# --------------------------------------------------------------------- SIM003
_ORDER_SAFE_CONSUMERS = {
    "sorted",
    "min",
    "max",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
}
_ORDER_SENSITIVE_CONSUMERS = {"list", "tuple", "enumerate", "iter", "reversed"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Attribute) and f".{node.attr}" in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b) stays a set when either side is one.
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    return False


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


def _collect_set_names(tree: ast.AST) -> set[str]:
    """Names assigned from set-producing expressions or annotated as sets.

    Bare names are stored as-is; attribute targets (``self._known: set``) are
    stored as ``.attr`` and matched on the terminal attribute name, module
    wide — a deliberate over-approximation (better a suppressible false
    positive than a silent hash-order dependency).
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if _is_set_expr(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        names.add(f".{target.attr}")
        elif isinstance(node, ast.AnnAssign):
            is_set = _annotation_is_set(node.annotation) or (
                node.value is not None and _is_set_expr(node.value, names)
            )
            if is_set and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif is_set and isinstance(node.target, ast.Attribute):
                names.add(f".{node.target.attr}")
        elif isinstance(node, ast.arg) and _annotation_is_set(node.annotation):
            names.add(node.arg)
    return names


class SetIterationRule(Rule):
    rule_id = "SIM003"
    severity = SEVERITY_ERROR
    description = "iteration over a set feeds hash-seed-dependent order downstream"

    def visit(self, tree: ast.AST, ctx: _ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        set_names = _collect_set_names(tree)
        safe_args: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_SAFE_CONSUMERS:
                    for arg in node.args:
                        safe_args.add(id(arg))
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                if id(node.iter) not in safe_args and _is_set_expr(node.iter, set_names):
                    yield node.iter, "for-loop over a set has hash-seed-dependent order"
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    if id(gen.iter) not in safe_args and _is_set_expr(
                        gen.iter, set_names
                    ):
                        if isinstance(node, ast.SetComp):
                            # set -> set keeps the result unordered; harmless.
                            continue
                        yield gen.iter, (
                            "comprehension over a set has hash-seed-dependent order"
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_SENSITIVE_CONSUMERS:
                    for arg in node.args[:1]:
                        if id(arg) not in safe_args and _is_set_expr(arg, set_names):
                            yield arg, (
                                f"{node.func.id}() over a set captures "
                                "hash-seed-dependent order"
                            )


# --------------------------------------------------------------------- SIM004
_TIMESTAMP_NAME_RE = re.compile(
    r"(?:^|_)(?:now|arrival|finish|start|end|admitted|enqueued|ready|deadline)$"
    r"|(?:_s|_time|_ts|_at|_deadline)$"
)


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _looks_like_timestamp(node: ast.expr) -> bool:
    name = _terminal_name(node)
    return name is not None and bool(_TIMESTAMP_NAME_RE.search(name))


def _is_sentinel(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return node.value is None or node.value == 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
        return node.operand.value == 0
    return False


class TimestampEqualityRule(Rule):
    rule_id = "SIM004"
    severity = SEVERITY_WARNING
    description = "float simulated timestamps compared with ==/!= (use a tolerance)"

    def visit(self, tree: ast.AST, ctx: _ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_sentinel(left) or _is_sentinel(right):
                    continue
                if _looks_like_timestamp(left) and _looks_like_timestamp(right):
                    yield node, (
                        "exact ==/!= between simulated timestamps; accumulated "
                        "float time needs a tolerance compare"
                    )


# --------------------------------------------------------------------- SIM005
_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "deque", "OrderedDict"}


class MutableDefaultRule(Rule):
    rule_id = "SIM005"
    severity = SEVERITY_ERROR
    description = "mutable default argument shared across calls"

    def visit(self, tree: ast.AST, ctx: _ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    yield default, (
                        f"mutable default in {node.name}() is shared across calls"
                    )
                elif (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_FACTORIES
                ):
                    yield default, (
                        f"mutable default {default.func.id}() in {node.name}() "
                        "is shared across calls"
                    )


ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRngRule(),
    SetIterationRule(),
    TimestampEqualityRule(),
    MutableDefaultRule(),
)


def _suppressions(source_lines: Sequence[str]) -> dict[int, set[str] | None]:
    """Map 1-based line -> suppressed rule ids (``None`` = all rules)."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source_lines, start=1):
        match = _IGNORE_RE.search(line)
        if not match:
            continue
        if match.group(1) is None:
            out[lineno] = None
        else:
            out[lineno] = {part.strip() for part in match.group(1).split(",") if part.strip()}
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[Rule] = ALL_RULES,
    select: set[str] | None = None,
) -> list[LintViolation]:
    """Lint one module's source text; returns violations sorted by location."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            LintViolation(
                rule="SIM000",
                severity=SEVERITY_ERROR,
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
                source="",
            )
        ]
    source_lines = source.splitlines()
    suppressed = _suppressions(source_lines)
    ctx = _ModuleContext(tree)
    violations: list[LintViolation] = []
    for rule in rules:
        if select is not None and rule.rule_id not in select:
            continue
        for node, message in rule.visit(tree, ctx):
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", 0)
            end_line = getattr(node, "end_lineno", line) or line
            is_suppressed = False
            for n in range(line, end_line + 1):
                if n in suppressed:
                    rules_off = suppressed[n]
                    if rules_off is None or rule.rule_id in rules_off:
                        is_suppressed = True
                        break
            if is_suppressed:
                continue
            text = source_lines[line - 1] if 0 < line <= len(source_lines) else ""
            violations.append(
                LintViolation(
                    rule=rule.rule_id,
                    severity=rule.severity,
                    path=path,
                    line=line,
                    col=col + 1,
                    message=message,
                    source=text,
                )
            )
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under each path (files pass through, dirs recurse)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] = ALL_RULES,
    select: set[str] | None = None,
) -> list[LintViolation]:
    """Lint every Python file under ``paths``."""
    violations: list[LintViolation] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        violations.extend(
            lint_source(source, path=str(file_path), rules=rules, select=select)
        )
    return violations


# ------------------------------------------------------------------- baseline
def load_baseline(path: str | Path) -> dict[str, int]:
    """Load a baseline file: fingerprint -> allowed count.  Missing -> empty."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return {}
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    entries = payload.get("entries", {})
    return {str(key): int(count) for key, count in entries.items()}


def write_baseline(path: str | Path, violations: Iterable[LintViolation]) -> dict[str, int]:
    """Write the baseline for ``violations``; returns the entry map."""
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.fingerprint] = counts.get(violation.fingerprint, 0) + 1
    payload = {
        "version": 1,
        "comment": (
            "simcheck lint baseline: pre-existing violations grandfathered in. "
            "Refresh with `python -m repro.simcheck src/repro --write-baseline`."
        ),
        "entries": dict(sorted(counts.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return counts


def apply_baseline(
    violations: Sequence[LintViolation], baseline: dict[str, int]
) -> tuple[list[LintViolation], list[str]]:
    """Split violations into (new, stale-baseline-fingerprints).

    Each baseline fingerprint absorbs up to its recorded count of matching
    violations; the rest are *new*.  Fingerprints in the baseline with no
    matching violation at all are *stale* (fixed debt — refresh the baseline).
    """
    remaining = dict(baseline)
    new: list[LintViolation] = []
    for violation in violations:
        key = violation.fingerprint
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            new.append(violation)
    matched = {
        v.fingerprint for v in violations if v.fingerprint in baseline
    }
    stale = sorted(key for key in baseline if key not in matched)
    return new, stale
