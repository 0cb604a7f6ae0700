"""The package computes exactly, with no float and no numeric library in
src/nektau, keeps no cache of its own outside a run's memo, builds
parameter samples only in its q-Painleve pool, writes and builds taus
only in tau.py, builds and reads symbol monomials only in symbols.py,
reaches a series' integer exponent lattice only in series.py, convolves
series only in series.sector_product, and never changes a SymExpr's term
map once it is built."""

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


def _calls(tree, names, exempt=()):
    """Lines that call one of names, outside the nodes in exempt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                yield node.lineno, name


def _pool_nodes(tree):
    """The nodes of the POOL_QP assignment."""
    return {id(n) for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "POOL_QP" for t in node.targets)
            for n in ast.walk(node.value)}


def test_package_builds_samples_only_in_the_q_painleve_pool():
    # a 5d series or mode takes the base t, so no code needs a stand-in sample
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = _pool_nodes(tree) if path.name == "identities.py" else set()
        found += [f"{path.name}:{line}" for line, _ in
                  _calls(tree, {"ParameterSample"}, exempt)]
    assert found == []


def test_package_writes_and_builds_taus_only_in_tau_py():
    # one place for the recipes (each system's table) and one memoised build
    # (TauSystem.tau) that every check and dump goes through
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "tau.py"
        for line, name in _calls(ast.parse(path.read_text(), str(path)),
                                 {"TauSpec", "build_tau"})
    ]
    assert found == []


def test_package_builds_and_reads_monomials_only_in_symbols_py():
    # the monomial's exponent map stays behind symbols.canonical, so a new
    # normal form (a q-Pochhammer base change, say) has one place to go
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "symbols.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in
                  _calls(tree, {"SymbolMonomial"})]
        found += [f"{path.name}:{node.lineno}: .factors" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "factors"]
    assert found == []


def test_package_reaches_series_lattices_only_in_series_py():
    # every other module goes through PuiseuxSeries' public methods, its
    # Fraction-keyed coeffs view and the sector kernels (sector_product,
    # sector_inverse), so the lattice form has one module to keep
    internals = {"on_lattice", "_top", "solve_recurrence"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "series.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in
                  _calls(tree, internals)]
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("xterms", "L")]
        found += [f"{path.name}:{node.lineno}: import {a.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for a in node.names if a.name in internals]
    assert found == []


def _callers(tree, name):
    """The qualified name of the function or class around each call to
    name, in the order of the calls ("" at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_products_convolve_and_find_their_bounds_in_sector_product_alone():
    # a Puiseux product is the one-sector case of series.sector_product, the
    # one caller of the convolution, and a Fourier product wraps its result:
    # fourier.py reads valuations only to lead an inverse
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [(module, scope) for module, tree in trees.items()
            for scope in _callers(tree, "_convolve")] == [("series", "sector_product")]
    assert _callers(trees["fourier"], "min_exp") == ["FourierSeries.leading"]


#: dict methods that change a dict in place
MUTATORS = {"pop", "update", "setdefault", "clear", "popitem"}


def _terms_mutations(tree):
    """Lines that change a `.terms` map in place: store into or delete an
    item of it, or call one of MUTATORS on it."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute) and node.value.attr == "terms"):
            yield node.lineno, "del .terms[...]" if isinstance(node.ctx, ast.Del) \
                else ".terms[...] ="
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "terms"):
            yield node.lineno, f".terms.{node.func.attr}()"


def test_package_never_changes_a_symexpr_after_it_is_built():
    # SymExpr.one() and zero() are shared values, and results are built on
    # their fresh term maps without a copy (symbols._expr), so a term map
    # changed in place would change every value that shares it
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _terms_mutations(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_terms_scan_sees_every_mutation():
    code = """
x.terms[m] = c
x.terms[m] += c
del y.terms[m]
x.terms.pop(m)
x.terms.update(d)
x.terms.setdefault(m, c)
x.terms.clear()
x.terms.popitem()
c = x.terms[m]
d = dict(x.terms)
d.pop(m)
"""
    assert [line for line, _ in _terms_mutations(ast.parse(code))] == list(range(2, 10))


PERFBENCH = PACKAGE.parents[1] / "perfbench"
#: names read from outside the package and the benchmark: the console
#: script's entry point (pyproject.toml)
ENTRY_POINTS = {("cli", "main")}


def _definitions(tree):
    """{name: node} of the module-level functions, classes and constants;
    dunders are module metadata and left out."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defs[n.id] = node
    return {name: node for name, node in defs.items() if not name.startswith("__")}


def _own_reads(tree, defs):
    """The names of defs that their module loads outside their definition."""
    inside = {name: {id(n) for n in ast.walk(node)} for name, node in defs.items()}
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load) and n.id in defs and id(n) not in inside[n.id]}


def _module_aliases(tree, package):
    """{local name: package module} of the modules a file imports whole."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "nektau" or (node.level and node.module is None)):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name in package})
        elif isinstance(node, ast.Import):
            aliases.update({a.asname: a.name.split(".")[1] for a in node.names
                            if a.asname and a.name.startswith("nektau.")})
    return aliases


def _outside_reads(tree, package):
    """(module, name) pairs of the package that a file imports by name or
    reads as an attribute of an imported module; in perfbench a string
    that names an attribute (a tracer's getattr) counts too."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            module = module.removeprefix("nektau.") if not node.level else module
            if module in package:
                reads |= {(module, a.name) for a in node.names}
    aliases = _module_aliases(tree, package)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) \
                    and value.value.id == "nektau":
                reads.add((value.attr, node.attr))
            elif isinstance(value, ast.Name) and value.id in aliases:
                reads.add((aliases[value.id], node.attr))
    return reads


def test_every_package_name_has_a_reader():
    # a module-level function, class or constant that nothing reads is dead
    # code; names resolve per module (series.ZERO is not rationals.ZERO)
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = set(ENTRY_POINTS)
    for module, tree in trees.items():
        reads |= {(module, name) for name in _own_reads(tree, _definitions(tree))}
        reads |= _outside_reads(tree, trees)
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reads |= _outside_reads(tree, trees)
        strings = {n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        reads |= {(module, s) for module in _module_aliases(tree, trees).values()
                  for s in strings}
    unread = [f"{module}.{name}" for module, tree in trees.items()
              for name in _definitions(tree) if (module, name) not in reads]
    assert unread == []
