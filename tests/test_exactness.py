"""The package computes exactly, with no float and no numeric library in
src/nektau, keeps no cache of its own outside a run's memo, and builds
parameter samples only in its q-Painleve pool."""

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


def _sample_constructions(tree, pool_ok):
    """Lines that call ParameterSample, outside the POOL_QP assignment when
    pool_ok."""
    exempt = set()
    for node in ast.walk(tree):
        if pool_ok and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "POOL_QP" for t in node.targets):
            exempt |= {id(n) for n in ast.walk(node.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "ParameterSample":
                yield node.lineno


def test_package_builds_samples_only_in_the_q_painleve_pool():
    # a 5d series or mode takes the base t, so no code needs a stand-in sample
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _sample_constructions(ast.parse(path.read_text(), str(path)),
                                          pool_ok=path.name == "identities.py")
    ]
    assert found == []
