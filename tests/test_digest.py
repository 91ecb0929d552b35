"""Witness digests: json's C encoder over the witness.

``expcli.digest`` hashes the output of one compact C encoder, which hands
every type it cannot write to ``expcli._shallow``; ``expcli.canonical``
reads that output back.  ``walk`` below is the recursive walker that
formed stats, params and set order before, kept here as a reference that
does not use the encoder: where every dict in a witness has str keys, the
digest is that of ``json.dumps`` of ``walk`` (``reference``), which fixed
the digests of earlier records; every witness of the record corpus and of
the golden invocations is checked against it.  Other keys come out as
the encoder writes them, and a witness the encoder refuses is recorded
as its trial's ``error:<Type>``.
"""

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import test_cli_golden
from exlab import expcli, lll_embed
from exlab.core import BipartiteGraph, EdgeColoring, Graph, KUniformHypergraph
from test_record_corpus import CORPUS


def walk(obj):
    """obj's JSON-safe form, recursing over lists, tuples, dicts and sets
    and handing every other type to ``expcli._shallow``; a non-str key
    becomes its own form's JSON text, and set items sort by theirs."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [walk(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            key = k if isinstance(k, str) else json.dumps(walk(k))
            out[key] = walk(v)
        return dict(sorted(out.items()))
    if isinstance(obj, (set, frozenset)):
        return sorted(map(walk, obj),
                      key=lambda x: json.dumps(x, sort_keys=True))
    return walk(expcli._shallow(obj))


def reference(obj) -> str:
    blob = json.dumps(walk(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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


# ---------------------------------------------------------------------------
# Seeded type fuzz, str keys only


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
    """The shape of ``removal.RemovalTrace``: a tuple of dicts inside a
    dataclass field."""

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
KEYS = ["a", "b", "type", "10", "2", "", "é", "\x1f", _Str("k"), _Str("a")]


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
    keys = [rng.choice(KEYS) for _ in range(rng.randrange(5))]
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
            {rng.choice(["0", "1", "2", "10", "census"]): _value(rng, depth - 2)
             for _ in range(rng.randrange(1, 4))}
            for _ in range(rng.randrange(3))))
    if r < 0.9:
        return Box(_value(rng, depth - 1), rng.choice([None, len, Leaf]))
    return Pair(_value(rng, depth - 1), _value(rng, depth - 1))


def _nested(depth: int, leaf) -> list:
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


def test_digest_matches_canonical_path_on_seeded_fuzz():
    rng = random.Random(20150702)
    for i in range(3000):
        value = _value(rng, rng.randrange(1, 6))
        assert expcli.digest(value) == reference(value), (i, value)
    deep = _nested(100, {"a": [Fraction(1, 3), {"b": frozenset({2, 1})}]})
    assert expcli.digest(deep) == reference(deep)


# ---------------------------------------------------------------------------
# Other keys, and witnesses the encoder refuses


_INT_KEYS = """
from exlab import expcli
print(expcli.digest({10: {3: 1, 2: None}, 2: frozenset({"b", "a"})}))
"""


def test_int_keys_digest_deterministically():
    # the encoder sorts int keys as numbers and writes them as text
    value = {10: {3: 1, 2: None}, 2: frozenset({"b", "a"})}
    blob = b'{"2":["a","b"],"10":{"2":null,"3":1}}'
    assert expcli.digest(value) == hashlib.sha256(blob).hexdigest()
    assert expcli.digest({2: frozenset({"a", "b"}), 10: {2: None, 3: 1}}) \
        == expcli.digest(value)
    # the same in a process with another str hash seed
    src = str(Path(expcli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _INT_KEYS], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src,
                              "PYTHONHASHSEED": "7"})
    assert out.stdout.strip() == expcli.digest(value)


def _cycle() -> list:
    loop = [1]
    loop.append(loop)
    return loop


REFUSED = {
    "tuple-key": ({(1, 2): "x"}, TypeError),
    "mixed-keys": ({1: "int", "1": "str"}, TypeError),
    "unknown-type": ([1, object()], TypeError),
    "unknown-in-set": (frozenset({object()}), TypeError),
    "cycle": (_cycle(), RecursionError),
    "deep": (_nested(5000, 0), RecursionError),
    "long-int": ({"n": 10 ** 5000}, ValueError),
    "long-fraction": (Fraction(10 ** 5000, 3), ValueError),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_witness_is_a_recorded_error_trial(name, tmp_path, capsys,
                                                   monkeypatch):
    # the same value is refused as a witness's digest and as stats
    value, kind = REFUSED[name]
    if kind is ValueError and not getattr(sys, "get_int_max_str_digits",
                                          lambda: 0)():
        pytest.skip("this interpreter has no int-to-str digit limit")
    with pytest.raises(kind):
        expcli.digest(value)
    with pytest.raises(kind):
        expcli.canonical(value)
    key = ("setmap", "violate")
    runner = expcli.OPS[key].runner
    out = tmp_path / "rec.json"
    argv = ["setmap", "--op", "violate", "--k", "2", "--n", "6", "--trials",
            "2", "--out", str(out)]
    for slot in (2, 3):  # the witness, then the stats

        def refused(params, host, rng, slot=slot):
            res = list(runner(params, host, rng))
            res[slot] = value
            return tuple(res)

        monkeypatch.setitem(expcli.OPS, key, dataclasses.replace(
            expcli.OPS[key], runner=refused))
        assert expcli.main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        trials = expcli.read_record(out)["trials"]
        assert [t["outcome"] for t in trials] == [f"error:{kind.__name__}"] * 2
        assert [t["witness"] for t in trials] == [None, None]
        assert expcli.main(["replay", str(out)]) == 1
        assert json.loads(capsys.readouterr().out)["match"] is True
