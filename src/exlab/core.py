"""Shared substrate: bitset graphs, hypergraphs, edge colorings, seeded RNG
streams, canonical generators and the edge-list graph reader.

All graph types are immutable after construction.  Vertices are dense
integer indices, and an id is the only name a vertex has; the hypercube
documents how its ids encode its points.  A bipartite graph's two parts V1
and V2 are vertex masks, and an induced bipartite subgraph keeps its host's
vertex ids, so a subgraph is never relabelled.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, log
from typing import Iterable, Iterator, Mapping, Sequence, Union

MAX_HYPERCUBE_DIM = 16
# The most vertices a drawn (G(n, p), G(n1, n2, p)) or complete host may
# have.  Its n rows of n bits take n^2/8 bytes, 32 MiB at 2^14.  A coloring
# of K_n holds an n^2-byte matrix, 256 MiB, and draws 8 C(n, 2) < 2^30 bits
# in one getrandbits call; at 2^15 that count would pass 2^31, past the C
# int that CPython's getrandbits takes.
MAX_VERTICES = 1 << 14


class GuardError(ValueError):
    """A resource guard rejected the parameters before any work started."""


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Failure:
    """Structured pipeline failure: the stage that failed plus its statistics."""

    stage: str
    reason: str
    stats: dict = field(default_factory=dict)


def verified(verify, *args, **kwargs):
    """The witness ``args[-1]`` once ``verify(*args, **kwargs)`` accepts it,
    else ``AssertionError(reason)`` from its ``(ok, reason)`` verdict.  The
    raise is explicit, so it runs under ``python -O``; a construction calls
    this on its own witness, whose rejection is a bug."""
    ok, reason = verify(*args, **kwargs)
    if not ok:
        raise AssertionError(reason)
    return args[-1]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


# ---------------------------------------------------------------------------
# RNG streams


class RngStream:
    """Seeded random stream with a recorded call position.

    The core generator is CPython's Mersenne Twister; equal seeds plus equal
    call sequences give equal outputs.  Child streams are derived from
    ``(seed, *path)`` through SHA-256 so that per-trial streams are
    reproducible and decoupled from the parent's position.  The scalar
    methods and :meth:`sample` are those of ``random.Random``; the bulk
    draws ``randrange_bytes`` and ``_bernoulli_rows`` have rules of their
    own, which ``ALGORITHM`` names: "digits" is the digit rule of
    ``_bernoulli_rows`` and the one-byte values of ``randrange_bytes``.
    """

    ALGORITHM = "mt19937-digits/sha256-derive"

    __slots__ = ("seed", "position", "_rng")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.position = 0
        self._rng = random.Random(self.seed)

    def derive(self, *path: object) -> "RngStream":
        key = "\x1f".join([str(self.seed), *[str(p) for p in path]])
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return RngStream(int.from_bytes(digest[:8], "big"))

    def random(self) -> float:
        self.position += 1
        return self._rng.random()

    def randrange(self, n: int) -> int:
        self.position += 1
        return self._rng.randrange(n)

    def randrange_bytes(self, n: int, count: int) -> bytes:
        """``count`` values uniform on [0, n), 1 <= n < 256, as a bytes object.

        Each value is the top ``(n - 1).bit_length()`` bits of one byte of
        ``getrandbits(8 * need)`` (byte i is bits 8i..8i+7), so a power of
        two rejects nothing; values >= n are deleted and exactly the
        shortfall is redrawn.  ``position`` advances by ``count``.
        """
        if not 1 <= n < 256:
            raise ValueError(f"randrange_bytes needs 1 <= n < 256, got {n}")
        shift = 8 - (n - 1).bit_length()
        table = bytes(b >> shift for b in range(256))
        rejected = bytes(b for b in range(256) if b >> shift >= n)
        out = b""
        while len(out) < count:
            need = count - len(out)
            out += self._rng.getrandbits(8 * need).to_bytes(
                need, "little").translate(table, rejected)
        self.position += count
        return out

    def choice(self, seq: Sequence):
        self.position += 1
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self.position += 1
        self._rng.shuffle(seq)

    def sample(self, population, k: int) -> list:
        """``random.Random.sample``, drawn in bulk for ``range(n)``.

        Where CPython samples ``range(n)``, n < 2^32, with a set, each value
        is the top ``n.bit_length()`` bits of one 32-bit word, and values
        >= n and repeats are drawn again.  This draws the words of the
        ``need`` values still missing with one getrandbits call, all of
        which the per-value loop would read too, keeps each new value in
        order and draws exactly the shortfall again, so the values, the
        generator state and ``position`` equal theirs.  Every other
        population goes to ``random.Random.sample``.
        """
        self.position += 1
        if not (type(population) is range and population.start == 0
                and population.step == 1
                and 0 <= k <= population.stop < 1 << 32
                and population.stop > _sample_setsize(k)):
            return self._rng.sample(population, k)
        n = population.stop
        shift = 32 - n.bit_length()
        bound = n << shift
        chosen = {}
        while len(chosen) < k:
            need = k - len(chosen)
            words = struct.unpack(f"<{need}I", self._rng.getrandbits(
                32 * need).to_bytes(4 * need, "little"))
            chosen.update(dict.fromkeys([w >> shift for w in words
                                         if w < bound]))
        return list(chosen)


def _sample_setsize(k: int) -> int:
    """The population size up to which ``random.Random.sample`` draws k
    values from a list instead of a set, as CPython computes it."""
    return 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)


# ---------------------------------------------------------------------------
# Graph types


class Graph:
    """Immutable simple graph on ``{0..n-1}`` with bitmask adjacency rows.

    Constructors reject loops, duplicate edges and out-of-range endpoints.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self.m = sum(r.bit_count() for r in rows) // 2

    @classmethod
    def from_adjacency(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Build from adjacency rows.  Rejects a row count other than n,
        loops, bits past n and rows that are not symmetric; builders whose
        rows hold by construction call ``_from_rows``."""
        _check_rows(rows, n)
        for u, r in enumerate(rows):
            if r >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        return cls._from_rows(n, rows)

    @classmethod
    def _from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        g.m = sum(r.bit_count() for r in rows) // 2
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for off in iter_bits(row):
                out.append((u, u + 1 + off))
        return out

    def density(self) -> Fraction:
        pairs = comb(self.n, 2)
        return Fraction(self.m, pairs) if pairs else Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class BipartiteGraph:
    """Bipartite graph between two vertex parts V1 and V2.

    Vertices are ids in ``[0, n)`` and each part is a vertex mask over that id
    space; every edge joins the two parts.  The public constructors lay the
    parts out contiguously, V1 = [0, n1), V2 = [n1, n).  :meth:`induced`
    keeps its host's ids instead, so a subgraph names its vertices exactly
    as the host does and ids outside both parts are isolated.
    """

    __slots__ = ("n", "adj", "m", "_parts", "n1", "n2", "v1", "v2")

    def __init__(self, n1: int, n2: int, edges: Iterable = ()):
        if min(n1, n2) < 0:
            raise ValueError("part sizes must be nonnegative")
        rows = Graph(n1 + n2, edges).adj
        self._set(rows, _checked_parts(rows, n1, n2))

    def _set(self, rows: Sequence[int], parts: tuple) -> None:
        self.n = len(rows)
        self.adj = tuple(rows)
        self.m = sum(r.bit_count() for r in rows) // 2
        self._parts = parts
        self.v1, self.v2 = (tuple(iter_bits(m)) for m in parts)
        self.n1, self.n2 = len(self.v1), len(self.v2)

    @classmethod
    def _from_parts(cls, rows: Sequence[int], parts: tuple) -> "BipartiteGraph":
        g = cls.__new__(cls)
        g._set(rows, parts)
        return g

    @classmethod
    def from_adjacency(cls, n1: int, n2: int,
                       rows: Sequence[int]) -> "BipartiteGraph":
        """Build from rows over the contiguous parts, as the constructor
        lays them out.  Rejects a row with bits past n or inside its own
        part, and rows that are not symmetric; builders whose rows hold by
        construction call ``_from_parts``."""
        if min(n1, n2) < 0:
            raise ValueError("part sizes must be nonnegative")
        _check_rows(rows, n1 + n2)
        return cls._from_parts(rows, _checked_parts(rows, n1, n2))

    @classmethod
    def induced(cls, g, mask1: int, mask2: int) -> "BipartiteGraph":
        """Bipartite subgraph of g between two disjoint vertex masks.

        Keeps g's vertex ids; each part row is g's row restricted
        to the other part, so edges inside a part are dropped.
        A row the restriction leaves unchanged is shared with g.
        """
        if mask1 & mask2:
            raise ValueError("parts must be disjoint")
        if (mask1 | mask2) >> g.n:
            raise ValueError(f"part masks exceed the {g.n} host vertices")
        rows = [0] * g.n
        for part, other in ((mask1, mask2), (mask2, mask1)):
            for v in iter_bits(part):
                row = g.adj[v]
                cut = row & other
                rows[v] = row if cut == row else cut
        return cls._from_parts(rows, (mask1, mask2))

    def mask(self, part: int) -> int:
        return self._parts[part - 1]

    # Graph's methods read only ``n`` and ``adj``, which both types share
    has_edge = Graph.has_edge
    degree = Graph.degree
    edges = Graph.edges

    def degree_into(self, u: int, part_mask: int) -> int:
        return (self.adj[u] & part_mask).bit_count()

    def cross_m(self) -> int:
        """Number of V1-V2 edges."""
        m2 = self.mask(2)
        return sum((self.adj[u] & m2).bit_count() for u in self.v1)

    def density(self) -> Fraction:
        """V1-V2 cross density."""
        cells = self.n1 * self.n2
        return Fraction(self.cross_m(), cells) if cells else Fraction(0)

    def transpose(self) -> "BipartiteGraph":
        """Swap the roles of V1 and V2; ids and rows are kept."""
        m1, m2 = self._parts
        return BipartiteGraph._from_parts(self.adj, (m2, m1))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self._parts == other._parts and self.adj == other.adj)

    __hash__ = None

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.n1}+{self.n2}, m={self.m})"


def _check_rows(rows: Sequence[int], n: int) -> None:
    """ValueError unless there are n rows, each below 2^n, and they are
    symmetric: symmetric rows are their own columns."""
    if len(rows) != n:
        raise ValueError("row count mismatch")
    for u, row in enumerate(rows):
        if row >> n:
            raise ValueError(f"row {u} has out-of-range bits")
    for u, (row, col) in enumerate(zip(rows, bit_columns(rows, n))):
        if row != col:
            v = ((row ^ col) & -(row ^ col)).bit_length() - 1
            raise ValueError(f"asymmetric edge ({u},{v})")


def _contiguous_parts(n1: int, n2: int) -> tuple:
    return (1 << n1) - 1, ((1 << n2) - 1) << n1


def _checked_parts(rows: Sequence[int], n1: int, n2: int) -> tuple:
    """The contiguous parts of the rows; ValueError on an edge inside one."""
    parts = _contiguous_parts(n1, n2)
    for part in parts:
        for u in iter_bits(part):
            if rows[u] & part:
                raise ValueError(f"row {u} has an edge inside its part")
    return parts


class KUniformHypergraph:
    """k-uniform hypergraph; edges are frozensets of exactly k vertices."""

    __slots__ = ("n", "k", "edges")

    def __init__(self, n: int, k: int, edges: Iterable = ()):
        if n < 0 or k < 1:
            raise ValueError("need n >= 0 and k >= 1")
        es = set()
        for e in edges:
            fe = frozenset(e)
            if len(fe) != k:
                raise ValueError(f"edge {sorted(fe)} is not a {k}-set")
            if any(not 0 <= v < n for v in fe):
                raise ValueError(f"edge {sorted(fe)} out of range")
            es.add(fe)
        self.n, self.k = n, k
        self.edges = frozenset(es)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, KUniformHypergraph)
                and (self.n, self.k, self.edges) == (other.n, other.k, other.edges))

    __hash__ = None

    def __repr__(self) -> str:
        return f"KUniformHypergraph(n={self.n}, k={self.k}, m={self.m})"


class EdgeColoring:
    """A host graph plus a total assignment of its edges to r color classes.

    Colors are kept as per-color bitmask adjacency rows so monochromatic
    neighborhood queries are single AND operations.
    """

    __slots__ = ("graph", "r", "rows")

    def __init__(self, graph, colors, r: int):
        if r < 1:
            raise ValueError("need at least one color")
        n = graph.n
        rows = [[0] * n for _ in range(r)]
        seen = 0
        is_map = isinstance(colors, Mapping)
        for u, v in graph.edges():
            if is_map:
                try:
                    c = colors[(u, v)]
                except KeyError:
                    raise ValueError(f"edge ({u},{v}) has no color assigned") from None
            else:
                c = colors(u, v)
            if not 0 <= c < r:
                raise ValueError(f"edge ({u},{v}) has color {c} outside 0..{r - 1}")
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
            seen += 1
        if is_map and len(colors) != seen:
            raise ValueError("color map keys do not match the edge set")
        self.graph = graph
        self.r = r
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def from_rows(cls, graph, rows, r: int) -> "EdgeColoring":
        c = cls.__new__(cls)
        c.graph, c.r = graph, r
        c.rows = tuple(tuple(row) for row in rows)
        return c

    def color_of(self, u: int, v: int):
        for c in range(self.r):
            if self.rows[c][u] >> v & 1:
                return c
        return None

    def class_size(self, c: int) -> int:
        return sum(row.bit_count() for row in self.rows[c]) // 2


def random_coloring(graph, r: int, stream: RngStream) -> EdgeColoring:
    """Uniform random r-coloring of the host's edges.

    Needs 1 <= r < 256.  Edge colors are drawn in ``graph.edges()`` order
    by one :meth:`RngStream.randrange_bytes` call, one byte per edge,
    scattered into an n*n byte matrix (0xFF: no edge).  Row u, read as the
    column above the diagonal followed by the row's own upper part, turns
    into each color's mask of u by one ``bytes.translate``.
    """
    if not 1 <= r < 256:
        raise ValueError(f"random_coloring needs 1 <= r < 256, got {r}")
    n = graph.n
    uppers = [graph.adj[u] >> (u + 1) for u in range(n)]
    colors = stream.randrange_bytes(r, sum(up.bit_count() for up in uppers))
    M = bytearray(b"\xff") * (n * n)
    at = 0
    for u, up in enumerate(uppers):
        d = up.bit_count()
        if not d:
            continue
        base = u * n + u + 1
        lo = (up & -up).bit_length() - 1
        if up >> lo == (1 << d) - 1:  # contiguous run, e.g. a complete host
            M[base + lo:base + lo + d] = colors[at:at + d]
        else:
            for i, off in enumerate(iter_bits(up)):
                M[base + off] = colors[at + i]
        at += d
    masks = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(r)]
    rows = [[0] * n for _ in range(r)]
    for u in range(n):
        line = (M[u::n][:u] + M[u * n + u:(u + 1) * n])[::-1]
        for c in range(r):
            rows[c][u] = int(line.translate(masks[c]), 2)
    return EdgeColoring.from_rows(graph, rows, r)


# ---------------------------------------------------------------------------
# Generators


def vertex_count_guard(n: int) -> None:
    """GuardError unless n <= MAX_VERTICES, the hosts ``random_graph``,
    ``random_bipartite`` and ``complete_graph`` build."""
    if n > MAX_VERTICES:
        raise GuardError(f"{n} vertices exceed guard {MAX_VERTICES}")


def complete_graph(n: int) -> Graph:
    vertex_count_guard(n)
    full = (1 << n) - 1
    rows = [full & ~(1 << u) for u in range(n)]
    return Graph._from_rows(n, rows)


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    if a < 1 or b < 1:
        raise ValueError("part sizes must be >= 1")
    mask2 = ((1 << b) - 1) << a
    mask1 = (1 << a) - 1
    rows = [mask2] * a + [mask1] * b
    return BipartiteGraph._from_parts(rows, _contiguous_parts(a, b))


def hypercube_guard(d: int) -> None:
    """GuardError unless 1 <= d <= MAX_HYPERCUBE_DIM, the dimensions
    ``hypercube`` builds."""
    if d < 1:
        raise GuardError(f"hypercube dimension must be >= 1, got {d}")
    if d > MAX_HYPERCUBE_DIM:
        raise GuardError(f"hypercube dimension {d} exceeds guard {MAX_HYPERCUBE_DIM}")


def hypercube(d: int) -> Graph:
    """The d-cube: vertex v is the point of {0,1}^d whose coordinate i is
    bit i of v, and two vertices are adjacent when they differ in one bit."""
    hypercube_guard(d)
    n = 1 << d
    rows = [0] * n
    for v in range(n):
        r = 0
        for i in range(d):
            r |= 1 << (v ^ (1 << i))
        rows[v] = r
    return Graph._from_rows(n, rows)


# byte columns that ``bit_columns`` transposes in one big int: each
# temporary holds at most 32 bytes per (padded) row
_BAND = 32
# the (shift, mask) delta swaps that transpose an 8x8 bit block held in a
# 64-bit word (Warren, Hacker's Delight, 2nd ed., section 7-3)
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
          (28, 0x00000000F0F0F0F0))


def bit_columns(rows: Sequence[int], cols: int) -> list:
    """Columns 0..cols-1 of the bit matrix whose row i is ``rows[i]``, every
    row below 2^cols: bit i of column c is bit c of ``rows[i]``.

    The rows are packed little-endian, nb bytes each, and padded with zero
    rows to a multiple m of 8.  The stride-nb slice from byte b lists byte
    b of every row, so its 8-byte words are 8x8 bit blocks: row 8k + i,
    columns 8b..8b+7.  Up to ``_BAND`` such slices form one big int, whose
    blocks three masked delta swaps transpose at once; then byte j of word
    k holds bits 8k..8k+7 of column 8b + j, so that column reads as every
    8th byte of slice b from byte j."""
    nb = (cols + 7) >> 3
    m = -(-len(rows) // 8) * 8
    packed = b"".join([row.to_bytes(nb, "little") for row in rows]) \
        + bytes((m - len(rows)) * nb)
    size = m * min(nb, _BAND)
    swaps = [(s, int.from_bytes(mask.to_bytes(8, "little") * (size // 8),
                                "little")) for s, mask in _SWAPS]
    out = []
    for b0 in range(0, nb, _BAND):
        band = range(b0, min(b0 + _BAND, nb))
        x = int.from_bytes(b"".join([packed[b::nb] for b in band]), "little")
        for s, mask in swaps:
            t = (x ^ x >> s) & mask
            x ^= t ^ t << s
        d = x.to_bytes(size, "little")
        for b in band:
            at = (b - b0) * m
            out += [int.from_bytes(d[at + j:at + m:8], "little")
                    for j in range(min(8, cols - 8 * b))]
    return out


def _bernoulli_rows(stream: RngStream, counts: Sequence[int], p: float) -> list:
    """Row i holds ``counts[i]`` positions, bit k set (an edge) with
    probability exactly T / 2^53, T = ceil(p * 2^53), independently.

    The digit rule: position k stands for a 53-bit number X whose binary
    digits, most significant first, are bit k of successive
    ``getrandbits(count)`` rounds of its row, and it is an edge exactly
    when X < T.  A position is decided in the first round whose bit differs
    from T's digit, as an edge when that digit is 1; positions still
    undecided after T's lowest 1 digit equal T's prefix and are non-edges.
    A row stops drawing once every position is decided, so p = 1/2 takes
    one round.  p <= 0 and NaN give empty rows and p >= 1 full ones, with
    no draw; ``position`` advances by ``sum(counts)`` either way.
    """
    # NaN compares false, so no draw is below it; p >= 1 admits every draw
    T = 0 if not p > 0 else 1 << 53 if p >= 1 else ceil(p * (1 << 53))
    stream.position += sum(counts)
    if T >> 53:
        return [(1 << count) - 1 for count in counts]
    low = (T & -T).bit_length() - 1  # T's lowest 1 digit
    digits = [T >> j & 1 for j in range(52, low - 1, -1)] if T else []
    getrandbits = stream._rng.getrandbits
    rows = []
    for count in counts:
        undecided = (1 << count) - 1
        row = 0
        for digit in digits:
            if not undecided:
                break
            ones = undecided & getrandbits(count)
            if digit:
                row |= undecided ^ ones
                undecided = ones
            else:
                undecided ^= ones
        rows.append(row)
    return rows


def random_graph(n: int, p: float, stream: RngStream) -> Graph:
    """G(n, p): row u's pairs (u, v), u < v, are one ``_bernoulli_rows``
    row of length n - 1 - u, bit k standing for v = u + 1 + k, drawn in
    order u = 0, 1, ...  The rows' lower halves are the ``bit_columns`` of
    their upper halves."""
    vertex_count_guard(n)
    upper = [row << (u + 1) for u, row in
             enumerate(_bernoulli_rows(stream, range(n - 1, -1, -1), p))]
    rows = [up | low for up, low in zip(upper, bit_columns(upper, n))]
    return Graph._from_rows(n, rows)


def random_bipartite(n1: int, n2: int, p: float,
                     stream: RngStream) -> BipartiteGraph:
    """G(n1, n2, p) on V1 = [0, n1), V2 = [n1, n1 + n2): the pairs
    (u, n1 + v) of u in V1 are one ``_bernoulli_rows`` row of length n2,
    bit v standing for n1 + v, drawn in order u = 0, 1, ...  The V2 rows
    are the V1 rows' columns."""
    vertex_count_guard(n1 + n2)
    draws = _bernoulli_rows(stream, [n2] * n1, p)
    rows = [row << n1 for row in draws] + bit_columns(draws, n2)
    return BipartiteGraph._from_parts(rows, _contiguous_parts(n1, n2))


# ---------------------------------------------------------------------------
# Random equitable bipartition


@dataclass(frozen=True)
class EquitablePartition:
    """A vertex bipartition of a graph, its sides ``bipartite.v1`` and
    ``bipartite.v2``, with the measured cross density."""

    bipartite: BipartiteGraph
    cross_density: Fraction
    tries: int


def random_equitable_bipartition(g: Graph, stream: RngStream,
                                 retry_cap: int = 1000
                                 ) -> Union[EquitablePartition, Failure]:
    """Split V(G) into halves whose cross density is at least density(G).

    Achievable in expectation, so the draw is retried; exceeding the cap
    returns a :class:`Failure` with the best density seen.
    """
    n = g.n
    base = g.density()
    half = (n + 1) // 2
    cells = half * (n - half)
    perm = list(range(n))
    best = (Fraction(0), 0)
    for t in range(1, retry_cap + 1):
        stream.shuffle(perm)
        side1 = perm[:half]
        mask2 = mask_of(perm[half:])
        cross = sum((g.adj[u] & mask2).bit_count() for u in side1)
        dens = Fraction(cross, cells) if cells else Fraction(0)
        if dens > best[0]:
            best = (dens, t)
        if dens >= base:
            bip = BipartiteGraph.induced(g, mask_of(side1), mask2)
            return EquitablePartition(bip, dens, t)
    return Failure("random_equitable_bipartition", "retry cap exhausted",
                   {"best_density": float(best[0]), "target": float(base)})


def try_bipartition(g: Graph):
    """2-color the graph by BFS; returns (side1, side2) or None if odd cycle."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in iter_bits(g.adj[u]):
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return None
    side1 = [v for v in range(g.n) if side[v] == 0]
    side2 = [v for v in range(g.n) if side[v] == 1]
    return side1, side2


# ---------------------------------------------------------------------------
# Edge-list graph file
#
# Format: first line "n", then one edge "u v" per line with 0 <= u < v < n.
# '#' starts a comment.


def _data_lines(path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield no, line


def _header(path) -> tuple:
    """``((no, line), rest)``: a file's first data line with its line
    number, and an iterator over the data lines after it; ParseError on a
    file without data lines."""
    lines = _data_lines(path)
    try:
        return next(lines), lines
    except StopIteration:
        raise ParseError("empty file", 1) from None


def _parse_ints(line: str, no: int, want: int) -> list[int]:
    parts = line.split()
    if len(parts) != want:
        raise ParseError(f"expected {want} fields, got {len(parts)}", no)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-integer field in {line!r}", no) from None


def read_graph(path) -> Graph:
    (no, head), lines = _header(path)
    (n,) = _parse_ints(head, no, 1)
    if not 0 <= n <= MAX_VERTICES:
        raise ParseError(f"vertex count must lie in 0..{MAX_VERTICES}", no)
    edges = []
    for no, line in lines:
        u, v = _parse_ints(line, no, 2)
        if not 0 <= u < v < n:
            raise ParseError(f"edge ({u},{v}) violates 0 <= u < v < {n}", no)
        edges.append((u, v))
    return Graph(n, edges)
