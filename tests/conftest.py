"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.lint import ContextCache, Program


@pytest.fixture(scope="session")
def lint_cache():
    """One parse of the live tree, shared by every live-tree lint test.

    The per-file, deep and docstring passes read the same source files;
    sharing one :class:`~repro.lint.ContextCache` (the ``cache=``
    parameter of ``run_lint``/``run_deep``/``Program.build``) parses
    each file once per session instead of once per test.
    """
    return ContextCache()


@pytest.fixture(scope="session")
def live_program(lint_cache):
    """The whole-program call graph of the live tree, built once per
    session from :func:`lint_cache` and shared by the tests that inspect
    it and the deep-lint gate (``run_deep(program=...)``)."""
    return Program.build(cache=lint_cache)


@pytest.fixture
def cached_lint_cli(lint_cache, monkeypatch):
    """``sweb-repro lint`` parsing through the session :func:`lint_cache`.

    ``repro.lint.runner.run_cli`` builds a private ``ContextCache`` per
    call; the live-tree CLI tests patch that constructor to hand back the
    shared one, so the CLI runs the same checks without re-parsing.
    """
    monkeypatch.setattr("repro.lint.runner.ContextCache", lambda: lint_cache)
