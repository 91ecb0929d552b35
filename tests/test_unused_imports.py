"""Every name a module of the package imports is used in that module,
every public name it defines is used somewhere in the package, and every
defaulted parameter of a public function is set by some call in it.

No linter ships with the package, so these AST checks stand in for the
unused-import, unused-definition and unused-parameter rules.
``__init__.py`` is exempt from the first: its imports are the package's
re-exports.  They are not uses, so a name only re-exported is reported
like any other.  A definition or an optional parameter that only the tests
use belongs in the tests.  ``UNSET_PARAMETERS`` names the few optional
parameters that are kept, each with its reason; ``UNCALLED_API`` is empty,
so every public definition must have a reader in the package.
"""

import ast
from collections import Counter
from pathlib import Path

import exlab

PACKAGE = Path(exlab.__file__).parent

UNCALLED_API = {}


_SEAM = ("a test seam: the bench tests time one small workload, with few "
         "repetitions and without the tier-1 subprocess")
UNSET_PARAMETERS = {
    ("bench.py", "run_bench", "workloads"): _SEAM,
    ("bench.py", "run_bench", "reps"): _SEAM,
    ("bench.py", "run_bench", "tier1"): _SEAM,
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


def _defaulted(fn, bound: int) -> list:
    """(name, index) of each parameter of ``fn`` that has a default, where
    index counts the positional arguments of a call (past ``bound`` ones
    that the call binds itself, such as ``self``) and is None for a
    keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, default
                  in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]


def _name(node):
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def calls(tree):
    """(callee name, positional args, keywords) of each call in ``tree``;
    ``verified(fn, *args)`` counts as a call of ``fn`` with ``args`` too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield _name(node.func), node.args, node.keywords
            if _name(node.func) == "verified" and node.args:
                yield _name(node.args[0]), node.args[1:], node.keywords


def _sets(call, name: str, index) -> bool:
    args, keywords = call
    if any(k.arg in (None, name) for k in keywords):  # None: a ** splat
        return True
    return index is not None and (
        len(args) > index or any(isinstance(a, ast.Starred) for a in args))


def unset_parameters(sources: dict) -> list:
    """(module, qualified name, parameter) of each defaulted parameter of a
    public function or method that no call in the package sets, by keyword
    or by position.

    A call is matched to a definition by the callee's name alone, so a
    call of another function of the same name counts, and a method's
    first parameter is taken as bound by the call.  Constructors are not
    checked: like every name that starts with an underscore, ``__init__``
    is not public.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined.append((module, top.name, top, 0))
            if isinstance(top, ast.ClassDef):
                defined += [(module, f"{top.name}.{node.name}", node, 1)
                            for node in top.body
                            if isinstance(node, ast.FunctionDef)]
    made = {}
    for tree in trees.values():
        for name, args, keywords in calls(tree):
            made.setdefault(name, []).append((args, keywords))
    return [(module, qual, name)
            for module, qual, node, bound in defined
            if not node.name.startswith("_")
            and not qual.startswith("_")
            for name, index in _defaulted(node, bound)
            if not any(_sets(call, name, index)
                       for call in made.get(node.name, ()))]


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


def test_every_optional_parameter_is_set_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unset_parameters(sources)) == set(UNSET_PARAMETERS)


def test_unused_parameter_check_sees_every_kind():
    assert unset_parameters({
        "a.py": "def f(x, y=1, z=2, *, w=3):\n    pass\n"
                "def g(x, y=1):\n    pass\n"
                "def _h(x=1):\n    pass\n"
                "class Box:\n"
                "    def put(self, x, y=1):\n        pass\n"
                "    def get(self, y=1):\n        pass\n",
        "b.py": "from .a import f, g, Box\n"
                "f(0, 1)\n"
                "verified(g, 0, 1)\n"
                "Box().put(0)\n"
                "Box().get(**{})\n"}) == [
        ("a.py", "f", "z"), ("a.py", "f", "w"), ("a.py", "Box.put", "y")]
    # a keyword or a starred positional sets a parameter
    assert unset_parameters({
        "a.py": "def f(x, y=1, *, w=3):\n    pass\n"
                "f(*args, w=0)\n"}) == []


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
