"""Every name a module of the package imports is used in that module, and
every public name it defines is used somewhere in the package.

No linter ships with the package, so these AST checks stand in for the
unused-import and unused-definition rules.  ``__init__.py`` is exempt from
the first: its imports are the package's re-exports, and they count as uses
for the second, so a re-exported name is public API.  A definition that
only the tests call belongs in the tests; ``UNCALLED_API`` names the few
that are kept for callers outside the package, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import exlab

PACKAGE = Path(exlab.__file__).parent

UNCALLED_API = {
    ("core.py", "from_adjacency"):
        "the checked constructors of Graph and BipartiteGraph, for rows "
        "built outside the package; its own builders use the unchecked ones",
}


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


def references(tree) -> Counter:
    """Reads of each name in ``tree``: Names, Attributes, imported names."""
    return Counter(node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def unused_definitions(sources: dict) -> list:
    """(module, name) of each public function, class, method or property
    that no module reads outside the definition itself."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    everywhere = sum(map(references, trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.ClassDef)
    defined = [(name, node) for name, tree in trees.items()
               for top in tree.body if isinstance(top, kinds)
               for node in [top, *(top.body if isinstance(top, ast.ClassDef)
                                   else ())]
               if isinstance(node, kinds) and not node.name.startswith("_")]
    return [(name, node.name) for name, node in defined
            if everywhere[node.name] == references(node)[node.name]]


def test_every_public_definition_is_used_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unused_definitions(sources)) == set(UNCALLED_API)


def test_unused_definition_check_sees_every_kind():
    assert unused_definitions({
        "a.py": "class Box:\n    def size(self):\n        return self.size()\n"
                "def make():\n    return Box()\n"
                "def _private():\n    pass\n",
        "b.py": "from .a import make as build\n"}) == [("a.py", "size")]


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
