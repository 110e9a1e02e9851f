"""No module of src/fbmcf reads or writes an underscore attribute of another object.

`obj._name` is allowed only where obj is `self` or `cls`; dunder names such as
`__name__` are public protocol.  So each object's private state, such as the
geometry `GraphSurface.geometry` keeps, stays with the code that owns it.
Plain `ast`, so no linter is needed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fbmcf"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def foreign_private_attributes(source):
    """(line, text) of each `obj._name` in source whose obj is not `self` or `cls`."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


@pytest.mark.parametrize("module", MODULES)
def test_no_foreign_private_attributes(module):
    assert foreign_private_attributes((SRC / module).read_text()) == []


def test_scan_finds_a_foreign_private_attribute():
    source = ("if surface._maxima is None:\n"
              "    surface._maxima = f(self._x, cls._y, type(e).__name__)\n"
              "g().h._k\n")
    assert foreign_private_attributes(source) == [
        (1, "surface._maxima"), (2, "surface._maxima"), (3, "g().h._k")]
