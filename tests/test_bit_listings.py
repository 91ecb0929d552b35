"""No module of the package lists every set bit of a mask through the
``iter_bits`` generator, which copies the mask once per bit.

A call that consumes all of it (``tuple``, ``list``, ``sorted``, ``set``,
``frozenset``, ``sum``, ``itertools.combinations``), a list, set or dict
comprehension over it, and a ``for`` loop over it that neither breaks nor
returns each take ``core.bits``, which lists a dense mask in one pass.
``iter_bits`` stays for the loops that may stop early and for the few
in ``STREAMED``, each with the reason that streaming wins there.
"""

import ast
from pathlib import Path

import exlab

PACKAGE = Path(exlab.__file__).parent

CONSUMERS = {"tuple", "list", "sorted", "set", "frozenset", "sum",
             "combinations"}
# the loops that stream the generator on purpose, each with its reason
STREAMED = {
    ("core.py", "edges"): (
        "the graphs that digests walk are sparse, and on their rows of a "
        "few bits, listing each row and then walking the list is slower "
        "than one walk of the generator"),
}


def _name(node):
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _of_iter_bits(node) -> bool:
    """Whether node is ``iter_bits(...)`` or ``enumerate(iter_bits(...))``."""
    if not isinstance(node, ast.Call):
        return False
    if _name(node.func) == "enumerate" and node.args:
        return _of_iter_bits(node.args[0])
    return _name(node.func) == "iter_bits"


def _stops_early(body, nested: bool = False) -> bool:
    """Whether a return, or a break of the loop whose body this is rather
    than of a loop nested in it, is among the statements of body."""
    for node in body:
        if isinstance(node, ast.Return) or (isinstance(node, ast.Break)
                                            and not nested):
            return True
        if isinstance(node, (ast.For, ast.While)):
            # a break in a nested loop's else clause leaves this loop
            parts = ((node.body, True), (node.orelse, nested))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            parts = ()
        else:  # if, with, try and its handlers
            parts = (([child for child in ast.iter_child_nodes(node) if
                       isinstance(child, (ast.stmt, ast.excepthandler))],
                      nested),)
        if any(_stops_early(part, inner) for part, inner in parts):
            return True
    return False


def _own_nodes(scope):
    """The nodes of a function or module body, without nested functions,
    which are scopes of their own."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def full_listings(source: str) -> list:
    """(scope, line) of each full listing of ``iter_bits`` in ``source``,
    where scope is the enclosing function's name or "<module>"."""
    tree = ast.parse(source)
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    found = []
    for scope in scopes:
        name = getattr(scope, "name", "<lambda>" if isinstance(
            scope, ast.Lambda) else "<module>")
        for node in _own_nodes(scope):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                hit = any(_of_iter_bits(g.iter) for g in node.generators)
            elif isinstance(node, ast.Call):
                arg = node.args[0] if node.args else None
                hit = _name(node.func) in CONSUMERS and (
                    _of_iter_bits(arg) or isinstance(arg, ast.GeneratorExp)
                    and any(_of_iter_bits(g.iter) for g in arg.generators))
            elif isinstance(node, ast.For):
                hit = _of_iter_bits(node.iter) and not _stops_early(node.body)
            else:
                hit = False
            if hit:
                found.append((name, node.lineno))
    return sorted(found)


def test_no_module_lists_iter_bits_in_full():
    found = {(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for scope, _ in full_listings(path.read_text("utf-8"))}
    assert found == set(STREAMED)


def test_listing_check_sees_every_kind():
    source = (
        "import itertools\n"
        "def f(m):\n"
        "    a = tuple(iter_bits(m))\n"                        # 3
        "    b = [v for v in iter_bits(m)]\n"                  # 4
        "    c = frozenset(v + 1 for v in iter_bits(m))\n"     # 5
        "    d = itertools.combinations(iter_bits(m), 2)\n"    # 6
        "    for i, v in enumerate(iter_bits(m)):\n"           # 7
        "        for w in range(v):\n"
        "            if w:\n"
        "                break\n"
        "    e = next(v for v in iter_bits(m) if v > 3)\n"
        "    for v in iter_bits(m):\n"
        "        if v > 3:\n"
        "            return v\n"
        "    for v in iter_bits(m):\n"
        "        while v:\n"
        "            if v > 3:\n"
        "                break\n"
        "        else:\n"
        "            break\n"
        "    g = lambda: sum(iter_bits(m))\n"                  # 21
        "    return bits(m)\n")
    assert full_listings(source) == [
        ("<lambda>", 21), ("f", 3), ("f", 4), ("f", 5), ("f", 6), ("f", 7)]
