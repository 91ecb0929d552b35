"""Witness digests: json's C encoder over the witness against canonical's path.

``expcli.digest`` encodes a witness with the C encoder, which hands every
type it cannot write to ``expcli._shallow``, and takes canonical's path
(``json.dumps`` of ``canonical``) when a dict in the witness has a key that
is not a str.  ``reference`` below is canonical's path.  The two must give
the same digest on every input, and where canonical's path raises, the
digest must raise the same exception with the same message.
"""

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import random
import shlex
import warnings
from fractions import Fraction

import pytest

import test_cli_golden
from exlab import expcli, lll_embed
from exlab.core import BipartiteGraph, EdgeColoring, Graph, KUniformHypergraph
from test_record_corpus import CORPUS


def reference(obj) -> str:
    blob = json.dumps(expcli.canonical(obj), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def outcome(fn, obj):
    """fn(obj), or the type and message of the exception it raises."""
    try:
        return fn(obj)
    except Exception as exc:
        return type(exc), str(exc)


def fast_path(obj) -> bool:
    """Whether digest(obj) is computed by the C encoder alone."""
    try:
        return expcli._str_keys_only(obj) and bool(expcli._encode(obj))
    except Exception:
        return False


def spied_witnesses(monkeypatch, runs) -> list:
    """Every object that ``expcli.digest`` receives while ``runs()`` runs."""
    seen = []
    digest = expcli.digest

    def spy(obj):
        seen.append(obj)
        return digest(obj)

    with monkeypatch.context() as patch:
        patch.setattr(expcli, "digest", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runs()
    return seen


@pytest.fixture(scope="module")
def corpus_witnesses():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return spied_witnesses(monkeypatch, lambda: [
            expcli.run(spec) for spec in CORPUS.values()])


def test_digest_matches_canonical_path_on_corpus_witnesses(corpus_witnesses):
    # the corpus yields one witness type per op, dozens of witnesses
    assert len(corpus_witnesses) > 40
    for w in corpus_witnesses:
        assert expcli.digest(w) == reference(w), type(w).__name__


def test_no_corpus_witness_takes_canonical_path(corpus_witnesses):
    """The gain holds only while real witnesses reach the C encoder."""
    slow = [type(w).__name__ for w in corpus_witnesses if not fast_path(w)]
    assert slow == []


def test_digest_matches_canonical_path_on_golden_invocations(
        tmp_path, monkeypatch):
    golden = json.loads(test_cli_golden.GOLDEN.read_text(encoding="utf-8"))
    lines = [line for line in test_cli_golden.INVOCATIONS
             if isinstance(line, str) and golden[line]["code"] == 0]
    for name, text in test_cli_golden.FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    def runs():
        with contextlib.chdir(tmp_path), \
                contextlib.redirect_stdout(io.StringIO()):
            for line in lines:
                expcli.main(shlex.split(line))

    seen = spied_witnesses(monkeypatch, runs)
    assert len(seen) > 20
    for w in seen:
        assert expcli.digest(w) == reference(w), type(w).__name__
        assert fast_path(w), type(w).__name__


# ---------------------------------------------------------------------------
# Seeded type fuzz


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


Pair = collections.namedtuple("Pair", "a b")


@dataclasses.dataclass(frozen=True)
class Leaf:
    value: object
    rule: object = len  # callable: canonical skips it


@dataclasses.dataclass(frozen=True)
class Trace:
    """The shape of ``removal.RemovalTrace``: int keys inside a tuple of
    dicts inside a dataclass field."""

    verdict: str
    levels: tuple
    bound: Fraction = Fraction(1, 3)


@dataclasses.dataclass
class Box:
    items: object
    rule: object = None


NAN, INF = float("nan"), float("inf")
SCALARS = [None, True, False, 0, -3, 2, 10, 1.5, -0.0, NAN, INF, -INF, "",
           "a\"b\né", "10", "2", _Str("s"), _Int(7), _Float(0.25),
           Fraction(1, 3), Fraction(-2, 7), Fraction(5)]
KEYS = ["a", "b", "type", "10", "2", 2, 10, -1, True, False, None, 1.5, NAN,
        (1, 2), (), _Str("k"), _Str("a"), Fraction(1, 2), frozenset({1})]


def _hosts() -> list:
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    return [g, Graph(0), BipartiteGraph(2, 3, [(0, 2), (1, 4), (0, 3)]),
            BipartiteGraph(0, 0), EdgeColoring(g, {(0, 1): 0, (1, 2): 1,
                                                   (2, 3): 0}, 2),
            KUniformHypergraph(5, 3, [(0, 1, 2), (2, 3, 4)]),
            KUniformHypergraph(3, 2),
            lll_embed.TargetHypergraph(4, [(0, 1), (2,), (1, 2, 3)]),
            # the 2-sets (0, 1) and (3, 4) are the first and last of C(5, 2)
            lll_embed.DownClosedHypergraph(5, 2, [0, 9]),
            lll_embed.DownClosedHypergraph(3, 1),
            [], (), {}, set(), frozenset()]


HOSTS = _hosts()


def _hashable(rng: random.Random, depth: int):
    r = rng.random()
    if depth <= 0 or r < 0.45:
        return rng.choice(SCALARS)
    if r < 0.65:
        return tuple(_hashable(rng, depth - 1)
                     for _ in range(rng.randrange(4)))
    if r < 0.75:
        return Pair(_hashable(rng, depth - 1), _hashable(rng, depth - 1))
    if r < 0.9:
        return frozenset(_hashable(rng, depth - 1)
                         for _ in range(rng.randrange(4)))
    return Leaf(_hashable(rng, depth - 1))


def _dict(rng: random.Random, depth: int) -> dict:
    size = rng.randrange(5)
    if rng.random() < 0.5:  # str keys only: the fast path
        keys = [rng.choice(["a", "b", "type", "10", "2", "", "é"])
                for _ in range(size)]
    else:
        keys = [rng.choice(KEYS) for _ in range(size)]
    return {k: _value(rng, depth - 1) for k in keys}


def _value(rng: random.Random, depth: int):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return rng.choice(SCALARS if r < 0.15 else HOSTS)
    if r < 0.4:
        return [_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if r < 0.5:
        return tuple(_value(rng, depth - 1) for _ in range(rng.randrange(4)))
    if r < 0.65:
        return _dict(rng, depth)
    if r < 0.72:
        return rng.choice([set, frozenset])(
            _hashable(rng, depth - 1) for _ in range(rng.randrange(4)))
    if r < 0.8:
        return Trace(rng.choice(["step", "base"]), tuple(
            {rng.choice([0, 1, 2, 10, "census"]): _value(rng, depth - 2)
             for _ in range(rng.randrange(1, 4))}
            for _ in range(rng.randrange(3))))
    if r < 0.9:
        return Box(_value(rng, depth - 1), rng.choice([None, len, Leaf]))
    return Pair(_value(rng, depth - 1), _value(rng, depth - 1))


def test_digest_matches_canonical_path_on_seeded_fuzz():
    rng = random.Random(20150702)
    paths = collections.Counter()
    for i in range(3000):
        value = _value(rng, rng.randrange(1, 6))
        want = outcome(reference, value)
        assert outcome(expcli.digest, value) == want, (i, value)
        paths[fast_path(value), isinstance(want, str)] += 1
    # both paths run, and most values have a digest
    assert paths[True, True] > 1000 and paths[False, True] > 300, paths


def test_digest_matches_canonical_path_on_key_types():
    values = [
        {2: "two", 10: "ten"},
        {"a": 1, 2: 3, "10": 4},
        {(1, 2): "x", (): "y"},
        {True: 1, None: 2, 1.5: 3, NAN: 4, -INF: 5},
        {1: "int", "1": "str"},
        {_Str("b"): 1, "a": 2, _Str("10"): 3},
        {"outer": [{"inner": {3: None}}]},
        Trace("step", ({0: 1, 2: 2, 10: 3}, {"census": 5})),
        Leaf(Box((Trace("base", ({"k": {2: "x", 10: "y"}},)),))),
        Box([{Fraction(1, 2): "half"}]),
        frozenset({(2, 1), (1, 2), (10,)}),
        Pair(_Int(3), _Str("x")),
        [NAN, INF, -INF, _Float(1e300), 10 ** 30, -0.0],
        HOSTS,
    ]
    for value in values:
        assert expcli.digest(value) == reference(value), value
    assert not any(map(expcli._str_keys_only, values[:10]))


def _nested(depth: int, leaf) -> list:
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


def _doubled(depth: int, leaf) -> list:
    value = leaf
    for _ in range(depth):
        value = [value, value]
    return value


def test_digest_raises_as_canonical_path_does():
    loop, table, twice, box = [1], {}, [2], Box(None)
    loop.append(loop)
    table["self"] = [table]
    twice += [twice, twice]
    box.items = (box,)
    unknown = object()
    values = [unknown, [1, unknown], {"a": unknown}, Leaf(unknown),
              frozenset({unknown}), {(unknown,): 1}, Box({"x": [unknown]}),
              loop, table, twice, box, _nested(5000, 0),
              # shared parts: 2^40 paths to one bad leaf
              _doubled(40, unknown),
              10 ** 5000, Fraction(10 ** 5000, 3)]
    for value in values:
        want = outcome(reference, value)
        assert isinstance(want, tuple), want
        assert outcome(expcli.digest, value) == want


def test_digest_scan_gives_up_on_deep_values():
    # deeper than the scan reads: canonical's path, with its digest
    value = _nested(100, {"a": 1})
    assert not expcli._str_keys_only(value)
    assert expcli.digest(value) == reference(value)
    assert expcli._str_keys_only(_nested(10, {"a": 1}))
