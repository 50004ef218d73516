"""The package's modules import only from lower layers:
fields -> linalg -> grid -> rectangles -> covers/homspace ->
verify/constructions -> io/sampling -> cli, homspace takes only the
interval records from rectangles, and constructions imports no
rect_to_module, realize or stack; no file in the package or
its tests imports a name it never uses; and the package never divides
with `/`, which turns two ints into a float."""

import ast
import os

import persistgrid

LAYERS = [("fields",), ("linalg",), ("grid",), ("rectangles",), ("covers", "homspace"),
          ("verify", "constructions"), ("io", "sampling"), ("cli",)]
RANK = {name: i for i, names in enumerate(LAYERS) for name in names}
PACKAGE = os.path.dirname(persistgrid.__file__)
TESTS = os.path.dirname(__file__)


def relative_imports(path):
    """Names of the package modules that the file imports with `from .`."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    modules = {fn[:-3] for fn in os.listdir(PACKAGE) if fn.endswith(".py") and fn != "__init__.py"}
    assert modules == set(RANK)


def test_imports_point_down():
    for name, rank in RANK.items():
        for dep in relative_imports(os.path.join(PACKAGE, f"{name}.py")):
            assert RANK[dep] < rank, f"{name} imports {dep}"


def test_hom_engine_reads_only_interval_records_from_rectangles():
    """homspace takes the 1D interval records and nothing of the rectangle
    sums: no RectDecomp, no realize, no rect_to_module."""
    with open(os.path.join(PACKAGE, "homspace.py")) as fh:
        tree = ast.parse(fh.read())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.level == 1 and node.module == "rectangles" for alias in node.names}
    assert names == {"Intervals", "interval_decompose_1d"}


def test_constructions_stack_only_through_the_stacker():
    """constructions writes every stack with its one stacker: it imports no
    rect_to_module, realize or stack, so no second chain path comes back."""
    with open(os.path.join(PACKAGE, "constructions.py")) as fh:
        tree = ast.parse(fh.read())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    assert names.isdisjoint({"rect_to_module", "realize", "stack"}), names


def unused_imports(path):
    """Names the file imports but never reads; a package's __all__ counts
    as a use."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    for folder in (PACKAGE, TESTS):
        for fn in sorted(os.listdir(folder)):
            if fn.endswith(".py"):
                assert unused_imports(os.path.join(folder, fn)) == [], f"{fn} imports names it never uses"


def test_no_true_division():
    for fn in sorted(os.listdir(PACKAGE)):
        if fn.endswith(".py"):
            with open(os.path.join(PACKAGE, fn)) as fh:
                tree = ast.parse(fh.read())
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
            assert lines == [], f"{fn} divides with / at lines {lines}"


# functions the package defines for its users but never calls itself
UNREAD_ALLOWED = {
    "BuildResult.layer_count": "tests read a build's layer count, the extent of its stacking axis",
    "Field.div": "tests check that division over Q stays exact; the package multiplies by inv",
    "Matrix.from_ints": "builds matrices from integer rows in tests",
    "Poly.from_ints": "builds polynomials from integer coefficients in tests",
    "io.rects_to_json": "writes RECTS files, which tests and the benchmark make; the CLI only reads them",
}


def unread_functions():
    """Qualified names of the package's functions and methods whose name the
    package never reads, leaving out dunders, __all__ names and sampling,
    whose functions serve tests and the benchmark."""
    defined, read = {}, set(persistgrid.__all__)
    for fn in sorted(os.listdir(PACKAGE)):
        if not fn.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fn)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        if fn == "sampling.py":
            continue
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defined[f"{owner.get(id(node), fn[:-3])}.{node.name}"] = node.name
    return sorted(q for q, name in defined.items() if name not in read)


def test_every_function_is_read():
    assert unread_functions() == sorted(UNREAD_ALLOWED)
