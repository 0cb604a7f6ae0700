"""The package computes exactly, with no float and no numeric library in
src/nektau, and keeps no cache of its own outside a run's memo."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nektau"


def _inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        for name in names:
            if name.split(".")[0] == "mpmath":
                yield node.lineno, f"import {name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            yield node.lineno, "float() call"


def test_package_has_no_float_or_mpmath():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _inexact_nodes(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


#: functools' caching decorators; a run keeps its values only in its memo
#: (identities.Context.memo, reached through nekrasov.memoized)
CACHING = {"cache", "cached_property", "lru_cache"}


def _cache_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in CACHING:
                    yield node.lineno, f"from functools import {alias.name}"
        if isinstance(node, ast.Attribute):
            if (node.attr in CACHING and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"):
                yield node.lineno, f"functools.{node.attr}"
            if node.attr == "_cache" and isinstance(node.ctx, ast.Store):
                yield node.lineno, "assignment to a _cache attribute"
        if (isinstance(node, ast.Call) and any(
                isinstance(a, ast.Constant) and a.value == "_cache" for a in node.args)):
            yield node.lineno, "_cache set by name"


def test_package_keeps_no_cache_outside_the_run_memo():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _cache_nodes(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
