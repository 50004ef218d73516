"""Every file under src/ and tests/ parses as Python 3.10, the oldest
interpreter that pyproject.toml's requires-python admits, whatever
interpreter runs the tests.  The grammar alone is checked: a library call
new in a later version passes it."""

import ast
import os

MINIMUM = (3, 10)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sources():
    for top in ("src", "tests"):
        for folder, _, names in sorted(os.walk(os.path.join(ROOT, top))):
            yield from (os.path.join(folder, fn) for fn in sorted(names) if fn.endswith(".py"))


def test_sources_parse_as_the_declared_minimum():
    paths = list(sources())
    assert os.path.abspath(__file__) in paths
    for path in paths:
        with open(path) as fh:
            ast.parse(fh.read(), path, feature_version=MINIMUM)
