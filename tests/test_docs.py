"""README.md and DESIGN.md cite only what exists: every test they name as
tests/<file>.py::<name> (a function, or a class and its method) is defined
in that file, and every dotted name whose first part is a package module
(grid.live_arrows, homspace.Context.fibres) resolves on persistgrid.<module>.
DESIGN.md has one section per layer, in the order of test_layers.LAYERS,
and each of its bullets names a test."""

import ast
import importlib
import os
import re

from test_layers import LAYERS, RANK

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DESIGN.md")
ABSENT = object()
TEST_REF = re.compile(r"tests/(\w+\.py)((?:::\w+)+)")
# a module name not inside a path or a longer name, then attributes; a
# module's file name (grid.py) is no attribute
NAME_REF = re.compile(rf"(?<![\w/.])({'|'.join(RANK)})((?:\.\w+)+)")


def text(name):
    with open(os.path.join(ROOT, name)) as fh:
        return fh.read()


def defined(path):
    """The test file's top-level names, and Class::method for each method."""
    with open(os.path.join(ROOT, "tests", path)) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{m.name}" for m in node.body if isinstance(m, ast.FunctionDef))
    return names


def test_cited_tests_exist():
    cited = [(doc, m.group(1), m.group(2)[2:]) for doc in DOCS for m in TEST_REF.finditer(text(doc))]
    assert cited
    missing = [f"{doc}: tests/{path}::{name}" for doc, path, name in cited
               if not os.path.exists(os.path.join(ROOT, "tests", path)) or name not in defined(path)]
    assert missing == []


def test_cited_names_resolve():
    cited = [(doc, module, attrs[1:]) for doc in DOCS for module, attrs in NAME_REF.findall(text(doc))
             if attrs != ".py"]
    assert cited
    missing = []
    for doc, module, attrs in cited:
        obj = importlib.import_module(f"persistgrid.{module}")
        for attr in attrs.split("."):
            obj = getattr(obj, attr, ABSENT)
        if obj is ABSENT:
            missing.append(f"{doc}: {module}.{attrs}")
    assert missing == []


def test_design_has_a_section_per_layer_in_order():
    headings = re.findall(r"^## (.+)$", text("DESIGN.md"), re.M)
    assert [tuple(h.split(" and ")) for h in headings] == LAYERS


def test_every_design_bullet_names_a_test():
    bullets = re.findall(r"^- (?:.+\n)(?:  .+\n)*", text("DESIGN.md"), re.M)
    assert bullets
    assert [b for b in bullets if not TEST_REF.search(b)] == []
