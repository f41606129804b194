"""Intraprocedural mutation tracking for the observation-purity proof.

For each function we compute a :class:`MutationSummary`: which *roots*
the function writes through — ``self``, a named parameter, a local, or
module-level state.  A "write" is an attribute/subscript store, an
augmented assignment, a ``del``, a known mutator-method call
(``append``/``update``/``add``/…), or assignment through a
``global``/``nonlocal`` declaration.  Locals assigned directly from a
parameter (or from ``self.attr``) are treated as aliases of that root,
so ``buf = self._buf; buf.append(x)`` still counts as a self-write.

Summaries order into a small purity lattice::

    PURE  <  OWN (self + locals)  <  PARAM  <  GLOBAL

``lint/rules/purity.py`` composes these summaries over the call graph:
an obs-layer function may sit at OWN, or at PARAM only when every
mutated parameter is annotated with an obs-layer type — which is
exactly the static form of PR 5's "observation-only" contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .callgraph import FunctionInfo

__all__ = ["MUTATOR_METHODS", "MutationSummary", "analyze_mutations",
           "iter_own_nodes"]

#: method names that mutate their receiver in place (list/dict/set/deque
#: and file-like receivers).  Over-approximate on purpose: a same-named
#: method on a repo class is almost certainly also a mutator.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popleft", "popitem", "remove", "reverse", "setdefault", "sort",
    "update", "write", "writelines",
})


@dataclass
class MutationSummary:
    """Which roots one function writes through (first line per root)."""

    mutates_self: bool = False
    self_line: int = 0
    mutated_params: dict[str, int] = field(default_factory=dict)
    mutated_globals: dict[str, int] = field(default_factory=dict)

    def record_param(self, name: str, line: int) -> None:
        self.mutated_params.setdefault(name, line)

    def record_global(self, name: str, line: int) -> None:
        self.mutated_globals.setdefault(name, line)

    def record_self(self, line: int) -> None:
        if not self.mutates_self:
            self.mutates_self = True
            self.self_line = line


def iter_own_nodes(fn: FunctionInfo) -> Iterator[ast.AST]:
    """Walk a function's own body, pruning nested def/class bodies.

    Nested functions are separate :class:`FunctionInfo` entries with
    their own summaries; lambdas and comprehensions stay attributed to
    the enclosing function.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _chain_root(expr: ast.expr) -> Optional[str]:
    """The root Name of an attribute/subscript chain, if any."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class _RootClassifier:
    """Map a root name to self/param/local/global within one function."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.self_name = fn.params[0] if fn.is_method and fn.params else None
        # locals aliasing a parameter or a self attribute keep that root
        self.aliases: dict[str, str] = {}
        for name, value in fn.assigns:
            root = _chain_root(value) if isinstance(
                value, (ast.Name, ast.Attribute, ast.Subscript)) else None
            if root is None:
                continue
            if root == self.self_name and self.self_name is not None:
                self.aliases.setdefault(name, "self")
            elif root in fn.params:
                self.aliases.setdefault(name, f"param:{root}")

    def classify(self, root: Optional[str]) -> tuple[str, str]:
        """``(kind, name)`` where kind is self/param/local/global/expr."""
        fn = self.fn
        if root is None:
            return "expr", ""
        if self.self_name is not None and root == self.self_name:
            return "self", root
        alias = self.aliases.get(root)
        if alias == "self":
            return "self", root
        if alias is not None and alias.startswith("param:"):
            return "param", alias.split(":", 1)[1]
        if root in fn.params:
            return "param", root
        if root in fn.global_decls:
            return "global", root
        if root in fn.nonlocal_decls:
            return "nonlocal", root
        if root in fn.bound_names:
            return "local", root
        return "global", root


def analyze_mutations(fn: FunctionInfo) -> MutationSummary:
    """Intraprocedural mutation summary of one function's own body."""
    summary = MutationSummary()
    classifier = _RootClassifier(fn)

    def record(expr: ast.expr, line: int) -> None:
        kind, name = classifier.classify(_chain_root(expr))
        if kind == "self":
            summary.record_self(line)
        elif kind == "param":
            summary.record_param(name, line)
        elif kind == "global":
            summary.record_global(name, line)
        # locals, nonlocals (the enclosing function's frame) and
        # expression temporaries are the function's own state

    for node in iter_own_nodes(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    record(target, node.lineno)
                elif (isinstance(target, ast.Name)
                      and (target.id in fn.global_decls
                           or target.id in fn.nonlocal_decls)):
                    summary.record_global(target.id, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    record(target, node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS):
                record(func.value, node.lineno)
    return summary
