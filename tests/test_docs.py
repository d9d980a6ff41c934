"""Documentation guardrails: docstring audit, generated API reference,
markdown link integrity, the README fleet quickstart snippet, and the wrapper
CI's ledger job reports the experiment run's peak memory with.

These keep the docs satellites honest: every public export must carry a
docstring with an example, ``docs/API.md`` must match what the generator
would produce from those docstrings, every relative markdown link must
resolve, and the README's fleet snippet must at least compile (CI executes
it for real in the ``docs`` job).
"""

from __future__ import annotations

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    path = REPO_ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocstringAudit:
    def test_every_export_has_a_docstring(self):
        import repro

        missing = [
            name
            for name in repro.__all__
            if name != "__version__" and not inspect.getdoc(getattr(repro, name))
        ]
        assert missing == []

    def test_every_export_docstring_has_an_example(self):
        import repro

        missing = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            doc = inspect.getdoc(getattr(repro, name)) or ""
            if ">>>" not in doc:
                missing.append(name)
        assert missing == []


class TestGeneratedApiDocs:
    def test_api_md_is_up_to_date(self):
        generator = _load_script("generate_api_docs")
        expected = generator.render()
        path = REPO_ROOT / "docs" / "API.md"
        assert path.exists(), "docs/API.md missing — run scripts/generate_api_docs.py"
        assert path.read_text(encoding="utf-8") == expected, (
            "docs/API.md is stale — regenerate with "
            "`PYTHONPATH=src python scripts/generate_api_docs.py`"
        )

    def test_reference_covers_all_exports(self):
        import repro

        text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert f"### `{name}`" in text


class TestMarkdownLinks:
    def test_all_relative_links_resolve(self):
        checker = _load_script("check_markdown_links")
        errors = []
        for path in checker.default_files():
            errors.extend(checker.check_file(path))
        assert errors == []

    @pytest.mark.parametrize("target", ["docs/ARCHITECTURE.md", "docs/API.md"])
    def test_readme_links_the_docs(self, target):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert target in readme
        assert (REPO_ROOT / target).exists()


class TestReadmeFleetSnippet:
    def test_fleet_quickstart_snippet_compiles(self):
        runner = _load_script("run_readme_snippets")
        snippets = runner.extract_snippets(
            (REPO_ROOT / "README.md").read_text(encoding="utf-8"),
            "Fleet serving & autoscaling",
        )
        assert snippets, "README lost its fleet quickstart python snippet"
        for index, snippet in enumerate(snippets):
            compile(snippet, f"<fleet-snippet-{index}>", "exec")
        # The snippet must exercise the fleet spec fields it documents.
        joined = "\n".join(snippets)
        for field in ("gpu_workers", "dispatch_policy", "autoscale"):
            assert field in joined


class TestPeakRssWrapper:
    def test_reports_the_child_and_passes_its_status_through(self, capsys):
        wrapper = _load_script("peak_rss")
        assert wrapper.main([sys.executable, "-c", "import sys; sys.exit(3)"]) == 3
        line = capsys.readouterr().out
        assert re.match(r"peak RSS \d+ MiB, minor faults \d+, wall \d+ s: ", line)
