"""No private helper of the package is kept only for its tests.

Each module of ``src/loader_rl/`` is parsed with ``ast``. A module-level
function or class whose name starts with one underscore must be read
somewhere in the package outside its own definition: as a name (a call,
a reference, a ``from . import``-ed name in use) or as an attribute
(``module._name``). A helper that only tests read belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "loader_rl").glob("*.py"))


def unread_private_helpers(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(id(node))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(read in inside for read in reads.get(node.name, [])):
                unread.append(f"{module}: {node.name}")
    return unread


def test_every_private_helper_is_read_in_the_package():
    assert unread_private_helpers({p.name: p.read_text() for p in PACKAGE}) == []


def test_the_scan_sees_what_it_must():
    sources = {
        "a.py": ("def _called():\n    pass\n"
                 "def _unread():\n    pass\n"
                 "def _only_itself(n):\n    return _only_itself(n - 1)\n"
                 "class _Imported:\n    pass\n"
                 "def _by_attribute():\n    pass\n"
                 "def __dunder__():\n    pass\n"
                 "def public():\n    _unread = 1\n    return _called()\n"),
        "b.py": ("from a import _Imported\nimport a\n"
                 "x = _Imported()\ny = a._by_attribute()\n"),
    }
    assert unread_private_helpers(sources) == ["a.py: _unread", "a.py: _only_itself"]
