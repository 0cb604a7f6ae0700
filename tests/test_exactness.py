"""The package computes exactly, with no float and no numeric library in
src/nektau, keeps no cache of its own outside a run's memo, builds
parameter samples only in its q-Painleve pool, writes and builds taus
only in tau.py, builds and reads symbol monomials only in symbols.py,
reaches a series' integer exponent lattice only in series.py, runs every
product and theta-form through one loop over pairs of terms
(series._moments), builds one table of box factors per
instanton kernel for both its diagonal and its pair_route, lets
only the Context choose the depth of the taus a check reads, reads the
corruption setting only in identities.verify, and never changes a
SymExpr's term map once it is built."""

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
    # Fraction-keyed coeffs view and the sector kernels (theta_products,
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


def _names(tree):
    """Every name that tree defines, imports, reads or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name


def test_products_and_theta_forms_share_one_loop_over_pairs_of_terms():
    # a product is the theta-form {(0, 0): 1}: both __mul__ call
    # series.theta_products, the one caller of _moments, so one loop forms
    # every product of a pair of terms and finds every bound; the old
    # product kernel is gone, and fourier.py reads valuations only to lead
    # an inverse
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [(module, scope) for module, tree in trees.items()
            for scope in _callers(tree, "_moments")] == [("series", "theta_products")]
    assert "PuiseuxSeries.__mul__" in _callers(trees["series"], "theta_products")
    assert "FourierSeries.__mul__" in _callers(trees["fourier"], "theta_products")
    assert [(module, name) for module, tree in trees.items() for name in _names(tree)
            if name in ("sector_product", "_convolve")] == []
    assert _callers(trees["fourier"], "min_exp") == ["FourierSeries.leading"]


#: the tables of box factors, one class per dimension
FACTOR_TABLES = ("LinearTable", "BinomialTable")
#: the instanton kernels, each a nekrasov._kernel on its own factor table
KERNELS = ("kernel_4d", "kernel_5d", "matter_kernel")


def _call_name(node):
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _call_args(fn, name):
    """The argument lists of the calls in fn of name, directly or as the
    first argument of another call (attempt(name, ...))."""
    return [node.args for node in ast.walk(fn) if isinstance(node, ast.Call)
            for args in [node.args] if _call_name(node) == name or (
                args and isinstance(args[0], ast.Name) and args[0].id == name)]


def _table_bindings(fn):
    """The names fn binds to a newly built factor table, one per build."""
    found = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = (zip(target.elts, node.value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                     else [(target, node.value)])
            found += [getattr(t, "id", None) for t, value in pairs
                      if isinstance(value, ast.Call) and _call_name(value) in FACTOR_TABLES]
    return found


def _stores(fn, name):
    return sum(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Store)
               for n in ast.walk(fn))


def _is_table(arg):
    return isinstance(arg, ast.Name) and arg.id == "table"


def test_each_kernel_builds_one_factor_table_for_its_diagonal_and_pair_route():
    # N_{lam lam}, the box-by-box factors and the pair_route of a kernel
    # read one table of box factors: the kernel binds it once, to the name
    # table, and hands that object to _inverse_diagonal and to _kernel,
    # which hands it on to mul_factors and pair_route; pair_route has no
    # other caller, and reads its table only by index
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    functions = {node.name: node for node in trees["nekrasov"].body
                 if isinstance(node, ast.FunctionDef)}
    for name in KERNELS:
        fn = functions[name]
        assert _table_bindings(fn) == ["table"] and _stores(fn, "table") == 1, name
        (diagonal,) = _call_args(fn, "_inverse_diagonal")
        (kernel,) = _call_args(fn, "_kernel")
        assert _is_table(diagonal[-1]) and _is_table(kernel[2]), name
    frame = functions["_kernel"]
    (route,) = _call_args(frame, "pair_route")
    (product,) = _call_args(frame, "mul_factors")
    assert _stores(frame, "table") == 0 and _is_table(route[2]) and _is_table(product[4])
    # no other code reaches pair_route, and tables are built only where the
    # kernels' own table, their numerators' and the n_factor wrappers' are
    assert [(module, scope) for module, tree in trees.items()
            for callee in ("pair_route", "_kernel")
            for scope in _callers(tree, callee)] == [
        ("nekrasov", "_kernel"), *(("nekrasov", name) for name in KERNELS)]
    assert sorted((module, scope, table) for module, tree in trees.items()
                  for table in FACTOR_TABLES for scope in _callers(tree, table)) == [
        ("nekrasov", "kernel_4d", "LinearTable"),
        ("nekrasov", "kernel_5d", "BinomialTable"),
        *[("nekrasov", "matter_kernel", "BinomialTable")] * 3,
        ("partitions", "n_factor_4d", "LinearTable"),
        ("partitions", "n_factor_5d", "BinomialTable"),
    ]
    (route,) = [node for node in trees["partitions"].body
                if isinstance(node, ast.FunctionDef) and node.name == "pair_route"]
    parents = {id(child): node for node in ast.walk(route)
               for child in ast.iter_child_nodes(node)}
    uses = [parents[id(n)] for n in ast.walk(route)
            if isinstance(n, ast.Name) and n.id == "table" and isinstance(n.ctx, ast.Load)]
    assert uses and all(isinstance(use, ast.Subscript) for use in uses)


#: the Context methods that build taus, D^k and zeta through a depth of
#: their own choosing (TauSystem.depth) for the order they are given
TAU_ACCESSORS = {"taus_4d", "hirota_4d", "zeta_4d", "taus_q"}


def _accessor_orders(tree):
    """(functions, order) for each call of a TAU_ACCESSORS attribute: the
    functions around it, innermost last, and its last argument."""
    found = []

    def visit(node, functions):
        if isinstance(node, ast.FunctionDef):
            functions = functions + [node]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in TAU_ACCESSORS):
            found.append((functions, node.args[-1]))
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(tree, [])
    return found


def _passes_its_bare_order(functions, order):
    """order is the name E, a parameter of the innermost function around
    the call that takes one and assigned in none of those inside it."""
    if not (isinstance(order, ast.Name) and order.id == "E"):
        return False
    for fn in reversed(functions):
        if any(isinstance(n, ast.Name) and n.id == "E" and isinstance(n.ctx, ast.Store)
               for n in ast.walk(fn)):
            return False
        if "E" in {a.arg for a in fn.args.args}:
            return True
    return False


def test_checks_pass_their_bare_order_to_the_tau_accessors():
    # each check asks the Context for its taus, Hirota derivatives and zeta
    # at the order z^E it compares through, so the depth they are built to
    # is chosen in one place
    calls = [(path.name, *call) for path in sorted(PACKAGE.glob("*.py"))
             for call in _accessor_orders(ast.parse(path.read_text(), str(path)))]
    assert len(calls) >= 34 and {name for name, *_ in calls} == {"identities.py"}
    assert [f"{functions[-1].name}:{order.lineno}: {ast.unparse(order)}"
            for _, functions, order in calls
            if not _passes_its_bare_order(functions, order)] == []


def _corrupt_readers(tree):
    """The innermost function around each read of an attribute named
    corrupt, or "<module>"."""
    found = set()

    def visit(node, name):
        if isinstance(node, ast.FunctionDef):
            name = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "corrupt"
                and isinstance(node.ctx, ast.Load)):
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(tree, "<module>")
    return found


def _runners(tree):
    """The run functions of a module (run_* and the run they nest) and the
    factories that return one or a lambda."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            nested = {n.name for n in ast.walk(fn)
                      if isinstance(n, ast.FunctionDef) and n is not fn}
            returned = [n.value for n in ast.walk(fn) if isinstance(n, ast.Return)]
            if fn.name.startswith("run") or any(
                    isinstance(r, ast.Lambda) or (isinstance(r, ast.Name) and r.id in nested)
                    for r in returned):
                yield fn


def test_only_verify_reads_the_corruption_setting():
    # the corruption probe lives in verify, which perturbs the right side
    # of every part it compares; no check reads the setting or takes one
    tree = ast.parse((PACKAGE / "identities.py").read_text())
    assert _corrupt_readers(tree) <= {"verify", "_compare"}
    runners = list(_runners(tree))
    assert {"run_NY", "run_q_blowup", "run_qD1", "_at_5d_point"} <= {fn.name for fn in runners}
    assert [fn.name for fn in runners
            if "corrupt" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}] == []


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


def _package_reads(trees):
    """The (module, name) pairs that the package's own modules read."""
    reads = set()
    for module, tree in trees.items():
        reads |= {(module, name) for name in _own_reads(tree, _definitions(tree))}
        reads |= _outside_reads(tree, trees)
    return reads


def test_every_package_name_has_a_reader():
    # a module-level function, class or constant that nothing reads is dead
    # code; names resolve per module (series.ZERO is not rationals.ZERO)
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = ENTRY_POINTS | _package_reads(trees)
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


#: module-level functions and classes that no module of the package names,
#: each with what keeps it: perfbench/tracing.py wraps n_factor_4d and
#: n_factor_5d for their per-layer metrics, and the qseries workload
#: (perfbench/workloads.py) compares theta_z_series' two routes, and each
#: spec's two routes with ps_equal_to_order
ONLY_BENCHMARKED = {"partitions.n_factor_4d", "partitions.n_factor_5d",
                    "qseries.theta_z_series", "fourier.ps_equal_to_order"}


def test_only_the_benchmark_keeps_a_package_function_that_the_package_never_names():
    # a function or class read only from outside src is dead to every
    # command; the benchmark's readers are listed above, and a new one
    # fails here until it is named there or used
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = _package_reads(trees)
    assert {f"{module}.{name}" for module, tree in trees.items()
            for name, node in _definitions(tree).items()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and (module, name) not in reads} == ONLY_BENCHMARKED
