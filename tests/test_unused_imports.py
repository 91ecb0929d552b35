"""Every name a module of the package imports is used in that module, and
every public name it defines is used somewhere in the package.

No linter ships with the package, so these AST checks stand in for the
unused-import and unused-definition rules.  ``__init__.py`` is exempt from
the first: its imports are the package's re-exports.  They are not uses,
so a name only re-exported is reported like any other.  A definition that
only the tests call belongs in the tests; ``UNCALLED_API`` names the few
that are kept for callers outside the package, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import exlab

PACKAGE = Path(exlab.__file__).parent

_CHECKED = ("the checked constructor, for rows built outside the package; "
            "its own builders use the unchecked one")
UNCALLED_API = {
    ("core.py", "Graph.from_adjacency"): _CHECKED,
    ("core.py", "BipartiteGraph.from_adjacency"): _CHECKED,
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


def attribute_reads(tree) -> Counter:
    """Reads of each name in ``tree`` as an attribute, ``x.name``."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def unused_definitions(sources: dict) -> list:
    """(module, qualified name) of each public function, class, method or
    property that no module reads outside the definition itself.

    Imports in ``__init__.py`` are not reads.  A function in a class body
    is read only as an attribute, ``x.name``, so a local variable or a
    function of the same name does not hide it.  What the check cannot
    see is the type an attribute is read on: a method whose name is also
    an attribute of another type, such as ``Graph.density`` beside
    ``BipartiteGraph.density``, counts as read when either is.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    readers = [tree for name, tree in trees.items() if name != "__init__.py"]
    names = sum(map(references, readers), Counter())
    attributes = sum(map(attribute_reads, readers), Counter())
    kinds = (ast.FunctionDef, ast.ClassDef)
    defined = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, kinds):
                defined.append((module, top.name, top, names, references))
            if isinstance(top, ast.ClassDef):
                defined += [(module, f"{top.name}.{node.name}", node,
                             attributes, attribute_reads)
                            for node in top.body
                            if isinstance(node, ast.FunctionDef)]
    return [(module, qual) for module, qual, node, reads, own in defined
            if not node.name.startswith("_")
            and reads[node.name] == own(node)[node.name]]


def test_every_public_definition_is_used_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unused_definitions(sources)) == set(UNCALLED_API)


def test_unused_definition_check_sees_every_kind():
    assert unused_definitions({
        "a.py": "class Box:\n    def size(self):\n        return self.size()\n"
                "def make():\n    return Box()\n"
                "def _private():\n    pass\n",
        "b.py": "from .a import make as build\n"}) == [("a.py", "Box.size")]
    # a re-export is not a use
    assert unused_definitions({
        "__init__.py": "from .a import helper\n",
        "a.py": "def helper():\n    pass\n"}) == [("a.py", "helper")]
    # nor is a local variable that shares a method's name
    assert unused_definitions({
        "a.py": "class Box:\n    def part_of(self, v):\n        return v\n",
        "b.py": "from .a import Box\n"
                "def _count(box: Box):\n"
                "    part_of = {box: 0}\n"
                "    return part_of[box]\n"}) == [("a.py", "Box.part_of")]


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
