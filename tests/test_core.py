"""Tests for the shared substrate: graphs, colorings, RNG streams, file I/O."""

import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from exlab import core
from exlab.core import (BipartiteGraph, EdgeColoring, Failure, Graph,
                        GuardError, ParseError, RngStream, bit_columns,
                        complete_bipartite, complete_graph,
                        hypercube, hypercube_guard, iter_bits, mask_of,
                        random_bipartite, random_coloring,
                        random_equitable_bipartition, random_graph,
                        read_graph, try_bipartition)
from exlab.core import _bernoulli_rows, _sample_setsize
from exlab.removal import grid_lines


def test_bit_helpers_round_trip():
    for mask in [0, 1, 0b1011, 1 << 70 | 5]:
        assert mask_of(iter_bits(mask)) == mask
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_rng_stream_reproducible():
    a, b = RngStream(42), RngStream(42)
    seq_a = [a.random() for _ in range(5)] + [a.randrange(100), a.choice("xyz")]
    seq_b = [b.random() for _ in range(5)] + [b.randrange(100), b.choice("xyz")]
    assert seq_a == seq_b
    assert a.position == b.position == 7


def test_rng_stream_derive():
    root = RngStream(7)
    c1 = root.derive("trial", 0)
    c2 = root.derive("trial", 0)
    c3 = root.derive("trial", 1)
    assert c1.seed == c2.seed
    assert c1.seed != c3.seed
    assert c1.random() == c2.random()
    # deriving does not advance the parent
    assert root.position == 0


def test_graph_validation():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_adjacency(2, [0b10, 0b00])  # asymmetric


def test_complete_graph():
    k5 = complete_graph(5)
    assert k5.m == 10
    assert k5.density() == Fraction(1)


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert (g.n1, g.n2, g.m) == (2, 3, 6)
    assert g.cross_m() == 6
    assert g.density() == Fraction(1)
    assert g.mask(1) == 0b00011 and g.mask(2) == 0b11100
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [(0, 1)])  # edge inside part V1


# V1 = {0, 1}, V2 = {2, 3}: each malformed row set with the error it gets
_MALFORMED_BIPARTITE_ROWS = (
    ([0b0100, 0, 0, 0], "asymmetric edge (0,2)"),     # one-way row
    ([0b0010, 0b0001, 0, 0], "row 0 has an edge inside its part"),
    ([0b10100, 0, 0b0001, 0], "row 0 has out-of-range bits"),
)


def test_bipartite_from_adjacency_validates_rows():
    g = BipartiteGraph.from_adjacency(2, 2, [0b1100, 0b1000, 0b0001,
                                             0b0011])
    assert g == BipartiteGraph(2, 2, [(0, 2), (0, 3), (1, 3)])
    for rows, message in _MALFORMED_BIPARTITE_ROWS:
        with pytest.raises(ValueError, match=re.escape(message)):
            BipartiteGraph.from_adjacency(2, 2, rows)
    with pytest.raises(ValueError, match="row 2 has an edge inside its part"):
        BipartiteGraph.from_adjacency(2, 2, [0, 0, 0b1000, 0b0100])
    with pytest.raises(ValueError, match="row count"):
        BipartiteGraph.from_adjacency(2, 2, [0, 0, 0])
    # the internal builders skip the check and still give valid rows
    for b in (complete_bipartite(3, 4),
              random_bipartite(5, 7, 0.5, RngStream(3))):
        assert BipartiteGraph.from_adjacency(b.n1, b.n2, b.adj) == b


def test_bipartite_from_adjacency_validates_under_optimize_flag():
    code = ("from exlab.core import BipartiteGraph\n"
            f"for rows, _ in {_MALFORMED_BIPARTITE_ROWS!r}:\n"
            "    try:\n"
            "        BipartiteGraph.from_adjacency(2, 2, rows)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    src = str(Path(core.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.splitlines() == [m for _, m in _MALFORMED_BIPARTITE_ROWS]


def test_bipartite_transpose():
    g = BipartiteGraph(2, 3, [(0, 2), (0, 3), (1, 4)])
    t = g.transpose()
    assert (t.n1, t.n2) == (3, 2)
    assert t.m == g.m
    assert t.transpose() == g
    # edge (0,2) survives, its ends now in the swapped parts
    assert 0 in t.v2 and 2 in t.v1
    assert t.has_edge(0, 2)


def test_hypercube():
    q3 = hypercube(3)
    assert (q3.n, q3.m) == (8, 12)
    assert all(q3.degree(v) == 3 for v in range(8))
    for u, v in q3.edges():
        assert (u ^ v).bit_count() == 1
    with pytest.raises(GuardError):
        hypercube(21)
    # 2^17 rows of 2^17 bits would take 2 GiB
    with pytest.raises(GuardError):
        hypercube_guard(17)
    with pytest.raises(GuardError):
        hypercube(17)


def test_hosts_past_the_vertex_cap_are_refused_before_any_draw():
    big = core.MAX_VERTICES + 1
    stream = RngStream(1)
    for build in (lambda: complete_graph(big),
                  lambda: random_graph(big, 0.5, stream),
                  lambda: random_bipartite(big - 1, 1, 0.5, stream)):
        with pytest.raises(GuardError, match="exceed guard"):
            build()
    assert stream.position == 0


def test_random_graph():
    g1 = random_graph(30, 0.5, RngStream(9))
    g2 = random_graph(30, 0.5, RngStream(9))
    assert g1 == g2
    assert Fraction(1, 4) < g1.density() < Fraction(3, 4)
    assert random_graph(10, 0.0, RngStream(1)).m == 0
    assert random_graph(10, 1.0, RngStream(1)) == complete_graph(10)


def bernoulli_row_per_position(stream, count, p, decided_in=None):
    """Reference digit rule, one position at a time: position k is an edge
    exactly when the 53-bit number whose digits are bit k of the row's
    successive getrandbits(count) rounds is below T = ceil(p * 2^53).  A
    position is decided in the first round whose bit differs from T's
    digit; the row stops once every position is decided or T has no 1 digit
    left.  ``decided_in[k]`` gets the 1-based round that decided k."""
    T = 0 if not p > 0 else 2 ** 53 if p >= 1 else math.ceil(p * 2 ** 53)
    stream.position += count
    if T == 2 ** 53:
        return (1 << count) - 1
    digits = format(T, "053b")
    undecided = set(range(count))
    row = 0
    for i, digit in enumerate(digits):
        if not undecided or "1" not in digits[i:]:
            break
        word = stream._rng.getrandbits(count)
        for k in sorted(undecided):
            if word >> k & 1 != int(digit):
                undecided.remove(k)
                row |= int(digit) << k
                if decided_in is not None:
                    decided_in[k] = i + 1
    return row


def random_graph_rows_per_pair(n, p, stream):
    """Reference G(n, p): row u's pairs (u, u + 1 + k) by the per-position
    digit rule, rows in order."""
    rows = [0] * n
    for u in range(n):
        row = bernoulli_row_per_position(stream, n - 1 - u, p)
        for k in iter_bits(row):
            rows[u] |= 1 << (u + 1 + k)
            rows[u + 1 + k] |= 1 << u
    return tuple(rows)


def random_bipartite_rows_per_pair(n1, n2, p, stream):
    """Reference G(n1, n2, p): row u's pairs (u, n1 + k) by the
    per-position digit rule, rows in order."""
    rows = [0] * (n1 + n2)
    for u in range(n1):
        row = bernoulli_row_per_position(stream, n2, p)
        for k in iter_bits(row):
            rows[u] |= 1 << (n1 + k)
            rows[n1 + k] |= 1 << u
    return tuple(rows)


# p = 1/2 takes one round, 3/8 = 0.011b stops after three, 2^-60 rounds to
# T = 1, whose only 1 digit is the last of 53
EDGE_PS = (0.0, 1.0, 0.5, 1 / 3, 3 / 8, 0.7, 0.001, 2 ** -60, 5e-324,
           1 - 2 ** -53, 1.5, -0.5, math.nan, math.inf)


class CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class ScriptedBits:
    """Stands in for a stream's generator: getrandbits returns the next
    scripted word."""

    def __init__(self, words):
        self.words = list(words)
        self.calls = []

    def getrandbits(self, k):
        self.calls.append(k)
        return self.words.pop(0) & ((1 << k) - 1)


def test_bernoulli_rows_match_the_per_position_rule():
    counts = [0, 5, 0, 64, 200, 1, 0]
    for p in EDGE_PS:
        for seed in (1, 77, 2 ** 40 + 3):
            bulk, single = RngStream(seed), RngStream(seed)
            rows = _bernoulli_rows(bulk, counts, p)
            assert rows == [bernoulli_row_per_position(single, c, p)
                            for c in counts], (p, seed)
            assert bulk.position == single.position == sum(counts)
            assert bulk._rng.getstate() == single._rng.getstate()
    assert _bernoulli_rows(RngStream(1), [], 0.5) == []


def test_bernoulli_rows_round_counts():
    """One round per nonempty row at p = 1/2, three for a long row at
    p = 3/8, none for an empty row or at p <= 0, NaN or p >= 1."""
    def rounds(counts, p):
        stream = RngStream(4)
        stream._rng = CountingRandom(4)
        _bernoulli_rows(stream, counts, p)
        return stream._rng.calls

    assert rounds([7, 0, 300, 1], 0.5) == 3
    assert rounds([300], 3 / 8) == 3
    assert rounds([0, 0], 0.7) == 0
    for p in (0.0, -0.5, math.nan, 1.0, 1.5):
        assert rounds([7, 0, 300, 1], p) == 0, p


def test_bernoulli_rows_have_the_exact_law():
    """At p = 5/16, T / 2^53 = 0.0101b: a row of 16 positions whose four
    rounds spell every 4-bit string once has exactly 5 edges, the strings
    below 0101, and the row stops after T's last 1 digit."""
    words = [sum((k >> (3 - i) & 1) << k for k in range(16))
             for i in range(4)]
    stream = RngStream(0)
    stream._rng = ScriptedBits(words)
    row, = _bernoulli_rows(stream, [16], 5 / 16)
    assert row == 0b11111
    assert stream._rng.calls == [16] * 4 and stream.position == 16


def test_random_graph_matches_per_pair_draws():
    # 8 and 9 straddle a byte of the bit matrix the columns are read from
    hosts = [(random_graph, random_graph_rows_per_pair, (n,), n * (n - 1) // 2)
             for n in (0, 1, 2, 7, 8, 9, 17, 300)]
    hosts += [(random_bipartite, random_bipartite_rows_per_pair, (n1, n2),
               n1 * n2)
              for n1, n2 in ((0, 3), (3, 0), (1, 1), (7, 9), (9, 8), (17, 40))]
    for make, per_pair, sizes, draws in hosts:
        for p in EDGE_PS:
            for seed in (1, 77, 2 ** 40 + 3):
                bulk, single = RngStream(seed), RngStream(seed)
                g = make(*sizes, p, bulk)
                assert g.adj == per_pair(*sizes, p, single), (sizes, p, seed)
                assert bulk.position == single.position == draws
                assert bulk._rng.getstate() == single._rng.getstate()
                assert g.m == sum(r.bit_count() for r in g.adj) // 2
    assert random_graph(9, math.nan, RngStream(1)).m == 0
    assert random_graph(9, math.inf, RngStream(1)) == complete_graph(9)
    assert random_graph(9, 1.5, RngStream(1)) == complete_graph(9)
    assert random_graph(9, -0.5, RngStream(1)).m == 0
    assert random_bipartite(4, 5, 1.0, RngStream(1)) == complete_bipartite(4, 5)


def bit_columns_per_bit(rows, cols):
    """Reference transpose: bit i of column c is bit c of rows[i]."""
    return [sum((row >> c & 1) << i for i, row in enumerate(rows))
            for c in range(cols)]


# _BIT_AS_DIGIT[j] maps a byte to b"1" when its bit j is set, else to b"0"
_BIT_AS_DIGIT = tuple(bytes(0x31 if b >> j & 1 else 0x30 for b in range(256))
                      for j in range(8))


def bit_columns_by_translate(rows, cols):
    """Reference transpose fast enough for full host sizes: the rows packed
    little-endian, last row first, so one ``bytes.translate`` of byte
    c >> 3 of every row spells column c as a binary numeral."""
    nb = (cols + 7) >> 3
    bits = b"".join([row.to_bytes(nb, "little") for row in reversed(rows)])
    return [int(bits[c >> 3::nb].translate(_BIT_AS_DIGIT[c & 7]) or b"0", 2)
            for c in range(cols)]


def test_bit_columns_matches_per_bit_transpose():
    rng = random.Random(8)
    cases = [([], 0), ([], 6), ([0, 0, 0], 0), ([0, 0, 0], 11), ([1], 1),
             ([0] * 5, 0)]
    # the last four widths cross the edge of a 32-byte band
    for count, width in ((1, 1), (3, 7), (8, 8), (9, 13), (17, 64), (5, 70),
                         (1, 255), (7, 256), (9, 257), (65, 520)):
        rows = [rng.getrandbits(width) for _ in range(count)]
        # the columns past the widest row read zero
        cases += [(rows, width), (rows, width + 11)]
    for rows, cols in cases:
        assert bit_columns(rows, cols) == bit_columns_per_bit(rows, cols), \
            (rows, cols)


def test_bit_columns_matches_translate_at_host_sizes():
    """2000 x 2000 is a G(2000, p) host's upper rows; 250 x 2250 the second
    transpose of ``weakseq._incidence_graph``."""
    rng = random.Random(24)
    for count, cols in ((2000, 2000), (250, 2250), (2250, 250)):
        rows = [rng.getrandbits(cols) for _ in range(count)]
        assert bit_columns(rows, cols) == bit_columns_by_translate(rows, cols)
    g = random_graph(2000, 0.5, RngStream(7))
    upper = [row >> u + 1 << u + 1 for u, row in enumerate(g.adj)]
    assert bit_columns(upper, 2000) == bit_columns_by_translate(upper, 2000)


def test_symmetry_check_names_the_lowest_edge_across_bands():
    """A 300-vertex matrix spans two 32-byte bands of ``bit_columns``; a bit
    flipped past column 256 is found, and the lowest one-way edge named."""
    rows = list(random_graph(300, 0.5, RngStream(3)).adj)
    assert Graph.from_adjacency(300, rows).adj == tuple(rows)
    for flips, edge in (([(270, 290)], "(270,290)"),
                        ([(290, 270)], "(270,290)"),
                        ([(299, 3)], "(3,299)"),
                        ([(280, 296), (260, 257), (270, 264)], "(257,260)")):
        bad = list(rows)
        for u, v in flips:
            bad[u] ^= 1 << v
        with pytest.raises(ValueError,
                           match=re.escape(f"asymmetric edge {edge}")):
            Graph.from_adjacency(300, bad)


def test_random_graph_settles_ties_both_ways():
    """Positions whose first bit equals T's first digit are settled in later
    rounds; at p = 1/3 such positions fall on both sides of p."""
    n, p, seed = 300, 1 / 3, 1
    stream = RngStream(seed)
    later = {True: 0, False: 0}
    for u in range(n):
        decided_in = {}
        row = bernoulli_row_per_position(stream, n - 1 - u, p, decided_in)
        for k, i in decided_in.items():
            if i > 1:
                later[bool(row >> k & 1)] += 1
    assert later[True] and later[False]
    assert random_graph(n, p, RngStream(seed)).adj == \
        random_graph_rows_per_pair(n, p, RngStream(seed))


def test_sample_matches_random_sample():
    cases = [(range(n), k) for k in (0, 1, 6, 3072)
             for n in (k, _sample_setsize(k), _sample_setsize(k) + 1,
                       4 * _sample_setsize(k) + 1) if n >= k]
    cases += [(range(comb(128, 3)), 3072), (range(2 ** 32 - 1), 6),
              (range(2 ** 32), 6), (range(2 ** 40), 3072),
              (range(1, 1000), 50), (range(0, 2000, 2), 50),
              (list(range(500)), 40), ("abcdefghij", 4)]
    for population, k in cases:
        for seed in (3, 2 ** 33 + 5):
            bulk, plain = RngStream(seed), random.Random(seed)
            assert bulk.sample(population, k) == plain.sample(population, k)
            assert bulk._rng.getstate() == plain.getstate(), (population, k)
            assert bulk.position == 1
    for population, k in ((range(5), 6), (range(100), 101), (range(50), -1)):
        with pytest.raises(ValueError):
            RngStream(1).sample(population, k)


def test_interpreter_keeps_the_draws_the_bulk_kernels_assume():
    """sample rebuilds CPython's draws from raw Mersenne Twister words; a
    change here would change its samples."""
    rnd, raw = random.Random(11), random.Random(11)
    for m in (1, 2, 5, 64):
        words = [raw.getrandbits(32) for _ in range(m)]
        assert rnd.getrandbits(32 * m) == sum(
            w << 32 * i for i, w in enumerate(words)), \
            "getrandbits(32*m) is no longer m words little-endian"
    for bits in (1, 7, 19, 31):
        assert rnd.getrandbits(bits) == raw.getrandbits(32) >> (32 - bits), \
            "getrandbits(k <= 32) is no longer the top k bits of one word"
    for k in (2, 5, 6, 7, 50, 3072):
        setsize = _sample_setsize(k)
        for n, branch, other in ((setsize, sample_from_list, sample_from_set),
                                 (setsize + 1, sample_from_set,
                                  sample_from_list)):
            for seed in range(100):  # until a seed tells the branches apart
                got = random.Random(seed).sample(range(n), k)
                assert got == branch(random.Random(seed), n, k), \
                    f"sample(range({n}), {k}) left the branch that " \
                    f"core._sample_setsize({k}) = {setsize} assumes"
                if got != other(random.Random(seed), n, k):
                    break
            else:
                pytest.fail(f"no seed told the branches apart at n={n}")


def randbelow(rnd, n):
    r = rnd.getrandbits(n.bit_length())
    while r >= n:
        r = rnd.getrandbits(n.bit_length())
    return r


def sample_from_list(rnd, n, k):
    """CPython's sample(range(n), k) for n <= setsize: a shrinking pool."""
    pool = list(range(n))
    out = []
    for i in range(k):
        j = randbelow(rnd, n - i)
        out.append(pool[j])
        pool[j] = pool[n - i - 1]
    return out


def sample_from_set(rnd, n, k):
    """CPython's sample(range(n), k) for n > setsize: redraw repeats."""
    out = {}
    while len(out) < k:
        out.setdefault(randbelow(rnd, n))
    return list(out)


def test_random_equitable_bipartition():
    g = random_graph(40, 0.5, RngStream(12))
    part = random_equitable_bipartition(g, RngStream(13))
    bip = part.bipartite
    assert bip.n1 == bip.n2 == 20
    assert part.cross_density >= g.density()
    assert bip.cross_m() == part.cross_density * 400
    # the parts are the host's own vertex ids
    assert sorted(bip.v1 + bip.v2) == list(range(40))
    assert all(bip.adj[v] == g.adj[v] & bip.mask(2) for v in bip.v1)
    assert random_equitable_bipartition(g, RngStream(13), retry_cap=0) == \
        Failure("random_equitable_bipartition", "retry cap exhausted",
                {"best_density": 0.0, "target": float(g.density())})


def test_try_bipartition_and_induced():
    q3 = hypercube(3)
    sides = try_bipartition(q3)
    assert sides is not None
    side1, side2 = sides
    assert len(side1) == len(side2) == 4
    bip = BipartiteGraph.induced(q3, mask_of(side1), mask_of(side2))
    assert bip.m == 12 and bip.cross_m() == 12
    assert bip.v1 == tuple(side1) and bip.n == q3.n
    assert try_bipartition(complete_graph(3)) is None
    with pytest.raises(ValueError):
        BipartiteGraph.induced(q3, 0b011, 0b110)  # parts share vertex 1
    with pytest.raises(ValueError):
        BipartiteGraph.induced(q3, 0b1, 1 << 8)  # vertex 8 is not in Q_3


def test_induced_keeps_host_ids():
    g = random_graph(30, 0.5, RngStream(21))
    host = Graph.from_adjacency(g.n, g.adj)
    side1 = [v for v in range(30) if v % 3 == 0]
    side2 = [v for v in range(30) if v % 3 == 1]
    bip = BipartiteGraph.induced(host, mask_of(side1), mask_of(side2))
    assert bip.n == 30
    assert (bip.v1, bip.v2) == (tuple(side1), tuple(side2))
    assert (bip.n1, bip.n2) == (10, 10)
    part = {v: i for i in (1, 2) for v in iter_bits(bip.mask(i))}
    assert part[3] == 1 and part[4] == 2
    assert 2 not in part  # left out of both parts
    brute = sum(host.has_edge(u, v) for u in side1 for v in side2)
    assert bip.cross_m() == bip.m == brute
    assert bip.density() == Fraction(brute, 100)
    for u, v in bip.edges():
        assert host.has_edge(u, v) and part[u] != part[v]
    assert all(bip.adj[v] == 0 for v in range(2, 30, 3))
    # an induced view of a view keeps the same ids
    sub = BipartiteGraph.induced(bip, mask_of(side1[:4]), mask_of(side2))
    assert sub.v1 == tuple(side1[:4]) and sub.adj[side1[0]] == bip.adj[side1[0]]


def test_transpose_swaps_parts_and_keeps_ids():
    g = random_graph(24, 0.5, RngStream(8))
    bip = BipartiteGraph.induced(g, mask_of(range(0, 24, 2)),
                                 mask_of(range(1, 17, 2)))
    t = bip.transpose()
    assert (t.v1, t.v2) == (bip.v2, bip.v1)
    assert (t.n1, t.n2) == (8, 12)
    assert t.mask(1) == bip.mask(2) and t.mask(2) == bip.mask(1)
    assert t.adj == bip.adj and t.n == bip.n
    assert t.cross_m() == bip.cross_m()
    assert t != bip
    assert t.transpose() == bip


def test_edge_coloring_validation():
    g = Graph(3, [(0, 1), (1, 2)])
    col = EdgeColoring(g, {(0, 1): 0, (1, 2): 1}, r=2)
    assert col.color_of(0, 1) == 0 and col.color_of(2, 1) == 1
    assert col.color_of(0, 2) is None
    assert col.class_size(0) == col.class_size(1) == 1
    assert col.rows[0][1] == 1 << 0
    with pytest.raises(ValueError):
        EdgeColoring(g, {(0, 1): 0}, r=2)  # (1,2) left uncolored
    with pytest.raises(ValueError):
        EdgeColoring(g, {(0, 1): 0, (1, 2): 5}, r=2)
    with pytest.raises(ValueError):
        EdgeColoring(g, {(0, 1): 0, (1, 2): 0}, r=0)


def test_edge_coloring_callable_and_random():
    g = complete_graph(6)
    col = EdgeColoring(g, lambda u, v: (u + v) % 3, r=3)
    assert sum(col.class_size(c) for c in range(3)) == g.m
    rnd = random_coloring(g, 2, RngStream(77))
    assert sum(rnd.class_size(c) for c in range(2)) == g.m
    for u, v in g.edges():
        assert rnd.color_of(u, v) in (0, 1)


def randrange_bytes_per_value(stream, n, count):
    """Reference one-byte draw: each value is the top (n - 1).bit_length()
    bits of the next byte of getrandbits(8 * need), kept when below n; the
    shortfall is drawn again."""
    shift = 8 - (n - 1).bit_length()
    out = []
    while len(out) < count:
        need = count - len(out)
        word = stream._rng.getrandbits(8 * need)
        for i in range(need):
            value = (word >> 8 * i & 0xFF) >> shift
            if value < n:
                out.append(value)
    stream.position += count
    return out


def coloring_rows_per_edge(graph, r, stream):
    """Reference coloring: edge colors in edges() order, one per-value byte
    draw each."""
    edges = graph.edges()
    colors = randrange_bytes_per_value(stream, r, len(edges))
    rows = [[0] * graph.n for _ in range(r)]
    for (u, v), c in zip(edges, colors):
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return tuple(tuple(row) for row in rows)


def test_random_coloring_matches_per_edge_draws():
    view = BipartiteGraph.induced(complete_graph(14), 0b10100101001,
                                  0b1001001010010)
    hosts = [complete_graph(30), random_graph(40, 0.2, RngStream(8)),
             random_graph(25, 0.9, RngStream(9)), view, grid_lines(4)[0],
             Graph(9), complete_graph(1), complete_graph(0)]
    for host in hosts:
        for r in (1, 2, 3, 5, 7, 255):
            bulk, single = RngStream(1234), RngStream(1234)
            col = random_coloring(host, r, bulk)
            assert col.rows == coloring_rows_per_edge(host, r, single), \
                (host, r)
            assert bulk.position == single.position
            assert bulk._rng.getstate() == single._rng.getstate()
    for bad in (0, 256):
        with pytest.raises(ValueError):
            random_coloring(complete_graph(3), bad, RngStream(1))


def test_randrange_bytes_matches_per_value_draws():
    for n in (1, 2, 3, 7, 128, 200, 255):
        bulk, single = RngStream(n), RngStream(n)
        got = bulk.randrange_bytes(n, 300)
        assert list(got) == randrange_bytes_per_value(single, n, 300)
        assert bulk.position == single.position == 300
        assert bulk._rng.getstate() == single._rng.getstate()
    assert RngStream(5).randrange_bytes(3, 0) == b""
    for bad in (0, 256):
        with pytest.raises(ValueError):
            RngStream(5).randrange_bytes(bad, 4)


def test_randrange_bytes_has_the_exact_law():
    """Fed each byte value once, the kept values hit every residue below n
    equally often, and a power of two rejects nothing."""
    every_byte = int.from_bytes(bytes(range(256)), "little")
    for n in (1, 2, 3, 7, 128, 255):
        stream = RngStream(0)
        stream._rng = ScriptedBits([every_byte, 0])
        got = stream.randrange_bytes(n, 256)
        kept = n << (8 - (n - 1).bit_length())
        assert Counter(got[:kept]) == {v: kept // n for v in range(n)}, n
        assert got[kept:] == bytes(256 - kept)
        assert len(stream._rng.calls) == (1 if kept == 256 else 2)


def write_graph(g, path) -> None:
    """Write g in the edge-list format that ``read_graph`` reads."""
    lines = [f"{g.n}\n", *(f"{u} {v}\n" for u, v in g.edges())]
    Path(path).write_text("".join(lines), encoding="utf-8")


def test_graph_io_round_trip(tmp_path):
    g = random_graph(12, 0.4, RngStream(3))
    path = tmp_path / "g.edges"
    write_graph(g, path)
    assert read_graph(path) == g


def test_parse_errors(tmp_path):
    empty = tmp_path / "empty.edges"
    empty.write_text("# only a comment\n")
    with pytest.raises(ParseError) as ei:
        read_graph(empty)
    assert ei.value.line_no == 1

    bad = tmp_path / "bad.edges"
    bad.write_text("3\n0 1\n0 two\n")
    with pytest.raises(ParseError) as ei:
        read_graph(bad)
    assert ei.value.line_no == 3

    rng = tmp_path / "range.edges"
    rng.write_text("3\n0 5\n")
    with pytest.raises(ParseError) as ei:
        read_graph(rng)
    assert ei.value.line_no == 2

    loop = tmp_path / "order.edges"
    loop.write_text("3\n1 0\n")
    with pytest.raises(ParseError):
        read_graph(loop)

    short = tmp_path / "short.edges"
    short.write_text("3\n0 1\n\n1\n")
    with pytest.raises(ParseError, match="expected 2 fields") as ei:
        read_graph(short)
    assert ei.value.line_no == 4

    edgeless = tmp_path / "edgeless.edges"
    edgeless.write_text("3\n")
    g = read_graph(edgeless)
    assert (g.n, g.m) == (3, 0)


def test_read_graph_bounds_the_vertex_count_on_its_header(tmp_path):
    """The header is checked before any row list is allocated."""
    path = tmp_path / "head.edges"
    for head in (10 ** 20, 10 ** 9, core.MAX_VERTICES + 1, -4):
        path.write_text(f"# host\n{head}\n0 1\n")
        with pytest.raises(ParseError, match=re.escape(
                f"line 2: vertex count must lie in 0..{core.MAX_VERTICES}")):
            read_graph(path)
    path.write_text(f"{core.MAX_VERTICES}\n0 {core.MAX_VERTICES - 1}\n")
    g = read_graph(path)
    assert (g.n, g.m) == (2 ** 14, 1)
