"""Every name a module of src/fbmcf imports is used in that module.

`__init__.py` re-exports by importing, and a line marked `# noqa: F401` keeps a
binding on purpose (another module wraps it).  Plain `ast`, so no linter is needed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fbmcf"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            kept = "# noqa: F401" in lines[node.lineno - 1]
            if kept or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_scan_finds_an_unused_import():
    source = ("import os\nfrom .errors import A, B\n"
              "from .x import y  # noqa: F401\nB()\n")
    assert unused_imports(source) == [(1, "os"), (2, "A")]
