"""Every name a module of the package imports is used in that module.

No linter ships with the package, so this AST check stands in for the
unused-import rule.  ``__init__.py`` is exempt: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import exlab

PACKAGE = Path(exlab.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_unused_import_check_sees_every_binding():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as js\n"
        "from .core import Graph, iter_bits as bits, mask_of\n"
        "def f(g: Graph):\n"
        "    return bits(g.adj[0]), os.sep\n") == ["js", "mask_of"]
