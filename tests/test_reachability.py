"""The reachability probe's analysis, on a small package and a hand-made entered set.

``scripts/reachability.py`` runs every entry point (minutes); these tests
give its AST walk and its allow-list check a synthetic package instead.
"""

from __future__ import annotations

import importlib.util
import os
import re
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reachability", REPO_ROOT / "scripts" / "reachability.py"
)
reachability = importlib.util.module_from_spec(_spec)
sys.modules["reachability"] = reachability  # its dataclass resolves annotations there
_spec.loader.exec_module(reachability)

SOURCE = '''
import functools


def used():
    return helper()


def helper():
    return 1


@functools.cache
def cached():
    return 2


def dead_outer():
    def dead_inner():
        return 3

    return dead_inner


def live_outer():
    def never_called():
        return 4

    return never_called


class Policy:
    def admit(self):
        """Declared only."""
        ...

    def reset(self):
        pass

    def evaluate(self):
        """Subclasses decide."""
        raise NotImplementedError

    def store(self):
        return store_all()

    def unused(self):
        return 5


def store_all():
    return 6
'''


@pytest.fixture()
def package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(textwrap.dedent(SOURCE))
    return root


def entered_at(package: Path, *names: str) -> set[tuple[str, int]]:
    """The ``(file, first line)`` keys of the named definitions, as the tracer records them."""
    by_name = {d.name: d for d in reachability.definitions(package)}
    return {(os.path.realpath(by_name[name].path), by_name[name].first_line) for name in names}


def missed_names(package: Path, *entered: str) -> list[str]:
    defined = reachability.definitions(package)
    return [d.name for d in reachability.unreached(defined, entered_at(package, *entered))]


LIVE = ("pkg.mod:used", "pkg.mod:helper", "pkg.mod:cached", "pkg.mod:live_outer")


def test_a_decorated_function_is_reached_through_its_decorator_line(package):
    (cached,) = [d for d in reachability.definitions(package) if d.name == "pkg.mod:cached"]
    source = (package / "mod.py").read_text().splitlines()
    assert source[cached.first_line - 1].startswith("@functools.cache")
    assert "pkg.mod:cached" in missed_names(package)
    assert "pkg.mod:cached" not in missed_names(package, *LIVE)


def test_an_unreached_function_nested_in_an_unreached_one_is_reported_once(package):
    missed = missed_names(package, *LIVE)
    assert "pkg.mod:dead_outer" in missed
    assert "pkg.mod:dead_outer.dead_inner" not in missed
    # A nested function of a reached one is a finding of its own.
    assert "pkg.mod:live_outer.never_called" in missed


def test_declarations_are_never_reported(package):
    missed = missed_names(package)
    for name in ("admit", "reset", "evaluate"):
        assert f"pkg.mod:Policy.{name}" not in missed
    assert "pkg.mod:Policy.unused" in missed


ALLOWED = {
    "groups": {"pinned": "the tracer patches it", "kept": "a documented reason"},
    "entries": {
        "pkg.mod:Policy.store": "pinned",
        "pkg.mod:store_all": "pinned",
        "pkg.mod:Policy.unused": "kept",
        "pkg.mod:dead_outer": "kept",
        "pkg.mod:live_outer.never_called": "kept",
    },
}
TARGETS = {"pkg.mod:Policy.store"}


def problems(package: Path, allowlist: dict, targets=TARGETS, entered=LIVE) -> list[str]:
    defined = reachability.definitions(package)
    missed = reachability.unreached(defined, entered_at(package, *entered))
    return reachability.check(missed, defined, allowlist, targets)


def with_entries(**changes) -> dict:
    entries = {**ALLOWED["entries"], **changes}
    return {**ALLOWED, "entries": {name: group for name, group in entries.items() if group}}


def test_check_is_clean_when_the_allowlist_matches(package):
    assert problems(package, ALLOWED) == []


def test_check_fails_on_an_unreached_function_not_on_the_allowlist(package):
    (problem,) = problems(package, with_entries(**{"pkg.mod:Policy.unused": None}))
    assert problem.startswith("unreached: pkg.mod:Policy.unused")


def test_check_fails_on_an_entry_that_is_reached_now(package):
    (problem,) = problems(package, ALLOWED, entered=(*LIVE, "pkg.mod:Policy.unused"))
    assert problem == "stale entry: pkg.mod:Policy.unused is reached now"


def test_check_fails_on_an_entry_no_longer_defined(package):
    (problem,) = problems(package, with_entries(**{"pkg.mod:gone": "kept"}))
    assert problem == "stale entry: pkg.mod:gone is no longer defined"


def test_check_fails_on_an_entry_whose_group_gives_no_reason(package):
    (problem,) = problems(package, with_entries(**{"pkg.mod:dead_outer": "unexplained"}))
    assert "group 'unexplained' has no reason" in problem


def test_pinned_group_follows_targets_and_what_they_call(package):
    # A target missing from the pinned group fails.
    (problem,) = problems(package, with_entries(**{"pkg.mod:Policy.store": "kept"}))
    assert problem.startswith("pkg.mod:Policy.store (")
    assert problem.endswith("is pinned by TARGETS but not in group 'pinned'")
    # A pinned entry TARGETS does not name fails.
    (problem,) = problems(package, with_entries(**{"pkg.mod:dead_outer": "pinned"}))
    assert problem == "pinned entry pkg.mod:dead_outer is not named by TARGETS"
    # Without the target, neither it nor its callee is pinned any more.
    assert len(problems(package, ALLOWED, targets=set())) == 2


def test_a_target_must_be_defined_on_its_owner(package):
    (problem,) = problems(package, ALLOWED, targets={*TARGETS, "pkg.mod:Policy.inherited"})
    assert problem == "TARGETS names pkg.mod:Policy.inherited, which is not defined on its owner"


def test_readme_sections_match_what_ci_runs():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    run = re.findall(r'run_readme_snippets\.py\s+--section "([^"]+)"', workflow)
    assert sorted(run) == sorted(reachability.README_SECTIONS)


def test_ci_inline_checks_are_found():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    checks = dict(reachability.ci_inline_checks(workflow))
    assert "Scoring holds no dense table" in checks
    assert all(compile(code, name, "exec") for name, code in checks.items())


def test_an_unreached_callee_of_a_reached_target_is_not_pinned(package):
    entered = tuple(name for name in LIVE if name != "pkg.mod:helper")
    allowlist = with_entries(**{"pkg.mod:helper": "kept"})
    assert problems(package, allowlist, targets={*TARGETS, "pkg.mod:used"}, entered=entered) == []
