"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.lint import ContextCache


@pytest.fixture(scope="session")
def lint_cache():
    """One parse of the live tree, shared by every live-tree lint test.

    The per-file, deep and docstring passes read the same source files;
    sharing one :class:`~repro.lint.ContextCache` (the ``cache=``
    parameter of ``run_lint``/``run_deep``/``Program.build``) parses
    each file once per session instead of once per test.
    """
    return ContextCache()
