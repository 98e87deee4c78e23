"""No module of the package, its tests or its demos imports a name it never uses.

Each module is parsed with ``ast``. An imported name counts as used when
it is read anywhere in the module, including annotations and the base of
an attribute, or when a function takes a parameter of that name (how a
test uses an imported pytest fixture). ``from __future__`` imports and
the package's ``__init__.py``, whose imports are its re-exports, are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in ("src/loader_rl", "tests", "demos")
                 for p in (ROOT / folder).glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_what_it_must():
    source = ("from __future__ import annotations\nimport os, sys as system\nimport a.b\n"
              "from x import (y, z as w)\nfrom q import fixture\n"
              "def f(fixture) -> y:\n    return a.b\n")
    assert unused_imports(source) == ["line 2: os", "line 2: system", "line 4: w"]
