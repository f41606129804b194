"""The docstring lint (scripts/check_docstrings.py) passes repo-wide."""

import importlib.util
from functools import partial
from pathlib import Path

import pytest

from repro.lint import run_lint

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_docstrings.py"


def _load_lint():
    spec = importlib.util.spec_from_file_location("check_docstrings", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def live_lint(lint_cache, monkeypatch):
    """The script module, linting the live tree through the shared
    session parse cache instead of re-parsing it."""
    module = _load_lint()
    monkeypatch.setattr(module, "run_lint",
                        partial(run_lint, cache=lint_cache))
    return module


def test_every_module_and_public_class_is_documented(live_lint):
    problems = live_lint.check_tree(REPO / "src" / "repro")
    assert problems == [], "\n".join(problems)


def test_lint_catches_missing_docstrings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("class Undocumented:\n    pass\n")
    lint = _load_lint()
    problems = lint.check_tree(tmp_path)
    assert len(problems) == 2          # bare module + bare class
    assert any("Undocumented" in p for p in problems)
    assert lint.main([str(tmp_path)]) == 1


def test_lint_cli_passes_on_real_tree(live_lint, capsys):
    assert live_lint.main([str(REPO / "src" / "repro")]) == 0
    assert capsys.readouterr().out == ""


def test_scripts_tree_is_documented(live_lint):
    problems = live_lint.check_tree(REPO / "scripts")
    assert problems == [], "\n".join(problems)


def test_lint_default_covers_library_and_scripts(live_lint, capsys):
    # No-arg main lints both default roots (src/repro and scripts/).
    assert len(live_lint.DEFAULT_ROOTS) == 2
    assert live_lint.main([]) == 0
    assert capsys.readouterr().out == ""
