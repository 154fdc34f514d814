"""Checks on the source itself rather than on what it computes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "wittforge").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"_record.py", "cli.py", "f3_survey.py"} <= names


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_assert_statements(path):
    # python -O strips assert, so a check written as one stops checking;
    # verification goes through errors.require or an explicit raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_environment_reads(path):
    # budgets are module constants: one the environment could set would
    # be an option that no test or benchmark runs both ways
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT)
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and {a.name for a in node.names} & _ENVIRONMENT)]
    assert lines == [], f"environment reads at lines {lines}"


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    # the name each top-level import binds, with its line
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    # the string entries of a top-level __all__ list or tuple
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    # a top-level import that nothing reads is dead code, and after a
    # deletion it is the usual leftover
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _top_level_imports(tree).items()
              if name not in used and name not in _exported(tree)}
    assert unused == {}, f"unused imports (name: line) {unused}"


def _defined(tree: ast.Module) -> dict[str, int]:
    # the names a module's top-level def, class and assignment statements
    # bind, with their lines; dunder names are the interpreter's
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not (name.startswith("__") and name.endswith("__")):
                bound[name] = node.lineno
    return bound


def _referenced(tree: ast.Module) -> set[str]:
    # every name a module reads, as a bare name, an attribute or an import
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


LIBRARY = [path for path in SOURCES if path.parent.name == "wittforge"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_library_definition_is_referenced():
    # a top-level definition that no source or script reads, and that its
    # module's __all__ does not declare, is dead code; tests and bench
    # reach the library through __all__, and a name read only in a string
    # does not count
    read = set().union(*(_referenced(_parse(path)) for path in SOURCES))
    unread = [f"{path.name}:{line} {name}" for path in LIBRARY
              for tree in [_parse(path)]
              for name, line in _defined(tree).items()
              if name not in read and name not in _exported(tree)]
    assert unread == [], f"top-level definitions nothing reads: {unread}"


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_declares_its_api(path):
    # every module declares its API, and each declared name exists
    tree = _parse(path)
    declared = _exported(tree)
    assert declared, "no __all__"
    bound = set(_defined(tree)) | set(_top_level_imports(tree))
    assert declared <= bound, f"unbound in __all__: {declared - bound}"


@pytest.mark.parametrize("path", [p for p in LIBRARY
                                  if p.stem.startswith("_")
                                  and p.stem != "__init__"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_private_modules_export_only_what_the_package_reads(path):
    # a private module serves the package, so each name its __all__
    # declares is read by another library module; one that only the
    # module itself or the tests read is dead code
    read = set().union(*(_referenced(_parse(other)) for other in LIBRARY
                         if other != path))
    unread = sorted(_exported(_parse(path)) - read)
    assert unread == [], f"declared but read by no other module: {unread}"


# the checked primitives that README "Library API" declares for the tests
# to use as oracles, though nothing in the program reads them
TEST_ORACLES = {"qarith.hilbert_symbol", "qarith.is_local_square",
                "quadform.hyperbolic"}


def test_declared_names_are_read_by_the_program():
    # a declared name that neither the package, a script nor the benchmark
    # reads serves the tests alone, and is dead code unless it is one of
    # the oracles
    program = [*SOURCES, *sorted((ROOT / "bench").rglob("*.py"))]
    read = set().union(*(_referenced(_parse(path)) for path in program))
    unread = {f"{path.stem}.{name}" for path in LIBRARY
              for name in _exported(_parse(path)) if name not in read}
    assert unread - TEST_ORACLES == set(), "declared, read by tests only"


def _package_reads(tree: ast.Module) -> set[tuple[str, str]]:
    # (module, name) for each public name read from wittforge.<module>,
    # by a from-import or as an attribute of an imported module; names
    # the package itself exports count against __init__
    submodules = {path.stem for path in LIBRARY}
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "wittforge":
            for alias in node.names:
                if alias.name in submodules:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    reads.add(("__init__", alias.name))
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("wittforge.")):
            module = node.module.split(".")[1]
            reads |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.split(".")[1])
                           for alias in node.names if alias.asname
                           and alias.name.startswith("wittforge."))
    reads |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules}
    return {(module, name) for module, name in reads
            if not name.startswith("_")}


def test_outside_readers_stay_inside_all():
    # tests, bench and scripts use the library only through what each
    # module's __all__ declares
    declared = {path.stem: _exported(_parse(path)) for path in LIBRARY}
    outside = [f"{path.relative_to(ROOT)}: {module}.{name}"
               for folder in ("tests", "bench", "scripts")
               for path in sorted((ROOT / folder).rglob("*.py"))
               for module, name in sorted(_package_reads(_parse(path)))
               if name not in declared[module]]
    assert outside == [], f"read from outside __all__: {outside}"


_FACTORING = {"factor", "squarefree_part", "_class_primes",
              "_classes_and_places"}


def _is_product(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
               for sub in ast.walk(node))


def _product_names(func: ast.AST) -> set[str]:
    # the names a function assigns an expression with a product in it,
    # element by element for a tuple assigned a tuple; a tuple unpacked
    # from a call is not attributed
    names = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        for whole in node.targets:
            pairs = (zip(whole.elts, node.value.elts)
                     if isinstance(whole, ast.Tuple)
                     and isinstance(node.value, ast.Tuple)
                     else [(whole, node.value)])
            names |= {target.id for target, value in pairs
                      if isinstance(target, ast.Name) and _is_product(value)}
    return names


def _products_factored(tree: ast.Module) -> list[int]:
    # the lines of factoring calls whose argument holds a product, or a
    # name its function bound to one
    lines = set()
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef))]
    for scope in scopes:
        bound = _product_names(scope) if scope is not tree else set()
        for call in ast.walk(scope):
            if not (isinstance(call, ast.Call) and getattr(
                    call.func, "id", getattr(call.func, "attr", None))
                    in _FACTORING):
                continue
            for arg in (*call.args, *(k.value for k in call.keywords)):
                if _is_product(arg) or any(
                        isinstance(sub, ast.Name) and sub.id in bound
                        for sub in ast.walk(arg)):
                    lines.add(call.lineno)
    return sorted(lines)


def test_product_check_sees_names_bound_to_products():
    # a product bound to a name first, as a tuple element too, is seen;
    # a tuple unpacked from divmod, a new number, is not
    flagged = ast.parse("def f(s, t, a, b):\n"
                        "    x, y = -s[0] * s[2], s[1]\n"
                        "    squarefree_part(x)\n"
                        "    squarefree_part(y)\n"
                        "    k, r = divmod(t * t - a, b)\n"
                        "    squarefree_part(k)\n"
                        "    m = abs(a * b)\n"
                        "    factor(m)\n")
    assert _products_factored(flagged) == [3, 8]


@pytest.mark.parametrize("path", LIBRARY,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_product_is_factored(path):
    # square classes multiply without factoring (square_class_product),
    # while a product of two numbers each within trial division can be a
    # cofactor that factor refuses: no factoring call takes a product,
    # directly or through a name bound to one
    lines = _products_factored(_parse(path))
    assert lines == [], f"factoring calls on products at lines {lines}"


def _places_misread(tree: ast.Module, module: str) -> list[str]:
    # the functions whose `_classes_and_places` call reads places off
    # anything but a form's entries (quadform) or the function's own
    # parameters (qarith): a square class built from them may be past
    # trial division
    flagged = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = {a.arg for a in (*func.args.args, *func.args.kwonlyargs)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and getattr(
                    call.func, "id", None) == "_classes_and_places"):
                continue
            arg = call.args[0]
            if module == "quadform":
                ok = isinstance(arg, ast.Attribute) and arg.attr == "entries"
            else:
                ok = {node.id for node in ast.walk(arg)
                      if isinstance(node, ast.Name)} <= params
            if not ok:
                flagged.add(f"{module}.{func.name}")
    return sorted(flagged)


def test_places_check_sees_places_read_off_classes():
    # the shapes that read places off square classes: a fork between
    # classes and entries, a pair of classes, names bound to classes
    quadform = ast.parse(
        "def _isotropic(s, entries=None):\n"
        "    return _classes_and_places(s if entries is None else entries)\n"
        "def _represents(a, b):\n"
        "    return _classes_and_places((a, b))\n"
        "def invariants(self):\n"
        "    return _classes_and_places(self.entries)\n")
    qarith = ast.parse(
        "def ramified_places(a, b):\n"
        "    sa, sb = squarefree_part(a), squarefree_part(b)\n"
        "    return _classes_and_places((sa, sb))\n"
        "def own(a, b):\n"
        "    return _classes_and_places((a, b))\n")
    assert _places_misread(quadform, "quadform") == ["quadform._isotropic",
                                                     "quadform._represents"]
    assert _places_misread(qarith, "qarith") == ["qarith.ramified_places"]


@pytest.mark.parametrize("module", ["quadform", "qarith"])
def test_places_are_read_off_entries(module):
    # a form's places come from its entries, and qarith's from the raw
    # arguments; no helper re-derives them from square classes
    path = ROOT / "src" / "wittforge" / f"{module}.py"
    assert _places_misread(_parse(path), module) == []


# the isotropy search runs on ints from the descent to the stitched vector;
# only isotropic_vector and represent_value build the Fractions they return
_INTEGER_SEARCH = ("_lagrange_descent", "_ternary_zero", "_represents",
                   "_int_isotropic")


def _fractions_built(tree: ast.Module, names) -> list[str]:
    # the named functions that construct a Fraction or call as_fraction,
    # by name or through a module attribute
    flagged = set()
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name in names):
            continue
        for call in ast.walk(func):
            if isinstance(call, ast.Call) and getattr(
                    call.func, "id", getattr(call.func, "attr", None)) in (
                    "Fraction", "as_fraction"):
                flagged.add(func.name)
    return sorted(flagged)


def test_fraction_check_sees_fractions_in_nested_calls():
    tree = ast.parse("def _ternary_zero(s):\n"
                     "    return f(Fraction(s[0], s[1]))\n"
                     "def _represents(a, b):\n"
                     "    def test(c):\n"
                     "        return qarith.as_fraction(c)\n"
                     "    return test\n"
                     "def isotropic_vector(q):\n"
                     "    return Fraction(1)\n")
    assert _fractions_built(tree, _INTEGER_SEARCH) == ["_represents",
                                                       "_ternary_zero"]


def test_isotropy_search_builds_no_fraction():
    tree = _parse(ROOT / "src" / "wittforge" / "quadform.py")
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert set(_INTEGER_SEARCH) <= defined
    assert _fractions_built(tree, _INTEGER_SEARCH) == []


# forms with int entries are built, reduced to their Witt kernels and
# decomposed in ints: these constructors and builders keep the type they
# are given (as_exact), so none of them constructs a Fraction
_INTEGER_FORMS = ("tensor", "direct_sum", "hyperbolic", "scale", "neg",
                  "pfister", "_peel", "_anisotropic_rep", "witt_decompose",
                  "decompose_split12")


def test_fraction_check_sees_the_form_builders():
    tree = ast.parse("def tensor(q1, q2):\n"
                     "    return QuadForm(Fraction(a) for a in q1.entries)\n"
                     "def scale(c, q):\n"
                     "    return QuadForm(qarith.as_fraction(c) * e\n"
                     "                    for e in q.entries)\n"
                     "def pfister(*slots):\n"
                     "    return [as_exact(a) for a in slots]\n"
                     "def isotropic_vector(q):\n"
                     "    return Fraction(1)\n")
    assert _fractions_built(tree, _INTEGER_FORMS) == ["scale", "tensor"]


def test_integral_form_path_builds_no_fraction():
    trees = [_parse(ROOT / "src" / "wittforge" / f"{module}.py")
             for module in ("quadform", "invol12")]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert set(_INTEGER_FORMS) <= defined
    assert [_fractions_built(tree, _INTEGER_FORMS) for tree in trees] == [
        [], []]
