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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from math import ceil, comb, log
from operator import or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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
    """Yield the indices of set bits in increasing order.  Each step copies
    the mask, so a loop that may stop early takes this and one that lists
    every bit takes :func:`bits`."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# sparse input goes one bit at a time: to ``bits``, a mask with at most 8
# set bits, or at most one in 16 of its span and 256 in all; to
# ``mask_of``, fewer than 64 ids, or ids as sparse in their span
_FEW, _SPARSE_RATIO, _SPARSE_SPAN = 8, 16, 4096
# binary digits to the 0/1 flags that ``itertools.compress`` reads
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int) -> list:
    """The indices of the set bits of a nonnegative mask, in increasing
    order: ``list(iter_bits(mask))``.

    A dense mask is read in one pass: the binary digits of its span past
    the trailing zeros, lowest first, are flags that ``itertools.compress``
    lays over the span's indices.  A sparse mask is listed one lowest bit
    at a time, as :func:`iter_bits` yields them.
    """
    if mask < 0:
        raise ValueError("negative mask")
    count = mask.bit_count()
    if count > _FEW:
        low = (mask & -mask).bit_length() - 1
        span = mask.bit_length() - low
        if count * _SPARSE_RATIO > min(span, _SPARSE_SPAN):
            flags = bin(mask >> low)[:1:-1].encode().translate(_DIGIT_FLAGS)
            return list(compress(range(low, low + span), flags))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices: Iterable[int]) -> int:
    """The mask with bit i set for each i in indices; ValueError on a
    negative one, as ``1 << i`` raises.

    Up to 63 ids, ids sparse in their span and ids past ``MAX_VERTICES``
    are ORed in one at a time.  Otherwise each id sets one ASCII digit of
    a bytearray, which ``int(digits[::-1], 2)`` reads in one pass, instead
    of copying the mask once per id.
    """
    ids = indices if isinstance(indices, (list, tuple)) else list(indices)
    if len(ids) >= 64:
        top = max(ids)
        if (top < MAX_VERTICES
                and len(ids) * _SPARSE_RATIO > min(top, _SPARSE_SPAN)):
            if min(ids) < 0:
                raise ValueError("negative bit index")
            digits = bytearray(b"0") * (top + 1)
            for i in ids:
                digits[i] = 49  # ord("1")
            return int(digits[::-1], 2)
    m = 0
    for i in ids:
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
    methods, :meth:`shuffle` and :meth:`sample` give what those of
    ``random.Random`` give, down to the generator state, though the last
    two draw CPython's 32-bit words in bulk; the bulk draws
    ``randrange_bytes`` and ``_bernoulli_rows`` have rules of their own,
    which ``ALGORITHM`` names: "digits" is the digit rule of
    ``_bernoulli_rows`` and the one-byte values of ``randrange_bytes``.
    """

    ALGORITHM = "mt19937-digits/sha256-derive"

    __slots__ = ("seed", "position", "_rng")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.position = 0

    def __getattr__(self, name: str):
        """Seed the generator on the first read of ``_rng``: a stream that
        only derives children never pays for seeding.  Once the slot is
        set, reads no longer come here."""
        if name != "_rng":
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        self._rng = random.Random(self.seed)
        return self._rng

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
        """``random.Random.shuffle``, drawn in bulk, for fewer than 2^32
        items.

        CPython swaps position i, from the last down to 1, with the value
        of ``_randbelow(i + 1)``: the top ``(i + 1).bit_length()`` bits of
        one 32-bit word, drawn again while it exceeds i.  This draws the
        words of the i positions still open with one getrandbits call, all
        of which the per-position loop would read too, lets a rejected
        word take nothing and draws exactly the shortfall again, so the
        list, the generator state and ``position`` equal theirs.
        """
        self.position += 1
        i = len(seq) - 1
        while i > 0:
            words = struct.unpack(f"<{i}I", self._rng.getrandbits(
                32 * i).to_bytes(4 * i, "little"))
            shift = 32 - (i + 1).bit_length()
            # the bit length of i + 1 drops once i falls below floor
            floor = (1 << 31 - shift) - 1
            for w in words:
                j = w >> shift
                if j <= i:
                    seq[i], seq[j] = seq[j], seq[i]
                    i -= 1
                    if i < floor:
                        shift += 1
                        floor >>= 1

    def sample(self, population, k: int) -> list:
        """``random.Random.sample``, drawn in bulk for ``range(n)``.

        Where CPython samples ``range(n)``, n < 2^31, with a set, each value
        is the top ``n.bit_length()`` bits of one 32-bit word, and values
        >= n and repeats are drawn again.  This draws the words of the
        ``need`` values still missing with one getrandbits call, all of
        which the per-value loop would read too, keeps each new value in
        order and draws exactly the shortfall again, so the values, the
        generator state and ``position`` equal theirs.

        A batch runs no Python code per word.  One shift and a lane mask
        built once per call put each word's top ``width`` bits in its own
        32-bit lane; subtracting those values from ``2^width - 1 + n`` in
        every lane sets bit ``width`` of a lane iff its value is below n,
        with no carry out of the lane since n < 2^31.  ``struct`` reads the
        values, ``itertools.compress`` keeps those whose bit is set, and
        ``dict.fromkeys`` drops repeats in order.  Every other population
        goes to ``random.Random.sample``.
        """
        self.position += 1
        if not (type(population) is range and population.start == 0
                and population.step == 1
                and 0 <= k <= population.stop < 1 << 31
                and population.stop > _sample_setsize(k)):
            return self._rng.sample(population, k)
        n = population.stop
        width = n.bit_length()
        shift = 32 - width
        ones = int.from_bytes(b"\1\0\0\0" * k, "little")
        lanes = ones * ((1 << width) - 1)
        below = ones * ((1 << width) - 1 + n)
        chosen = {}
        while len(chosen) < k:
            need = k - len(chosen)
            values = (self._rng.getrandbits(32 * need) >> shift) & lanes
            keep = ((((below >> 32 * (k - need)) - values) >> width) & ones
                    ).to_bytes(4 * need, "little")[::4]
            chosen.update(dict.fromkeys(compress(struct.unpack(
                f"<{need}I", values.to_bytes(4 * need, "little")), keep)))
        return list(chosen)


def _sample_setsize(k: int) -> int:
    """The population size up to which ``random.Random.sample`` draws k
    values from a list instead of a set, as CPython computes it."""
    return 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)


# ---------------------------------------------------------------------------
# Graph types


class Graph:
    """Immutable simple graph on ``{0..n-1}`` with bitmask adjacency rows.

    The constructor rejects loops, duplicate edges and out-of-range
    endpoints; builders whose rows hold by construction call ``_from_rows``,
    with the edge count when they have already taken it.
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
        self.m = sum(map(int.bit_count, rows)) // 2

    @classmethod
    def _from_rows(cls, n: int, rows: Sequence[int],
                   m: Optional[int] = None) -> "Graph":
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        g.m = sum(map(int.bit_count, rows)) // 2 if m is None else m
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
    space; every edge joins the two parts.  The constructor, which checks its
    edges, lays the parts out contiguously, V1 = [0, n1), V2 = [n1, n), and
    so do the builders, which call ``_from_parts``.  :meth:`induced`
    keeps its host's ids instead, so a subgraph names its vertices exactly
    as the host does and ids outside both parts are isolated.
    """

    __slots__ = ("n", "adj", "m", "_parts", "n1", "n2", "v1", "v2")

    def __init__(self, n1: int, n2: int, edges: Iterable = ()):
        if min(n1, n2) < 0:
            raise ValueError("part sizes must be nonnegative")
        rows = Graph(n1 + n2, edges).adj
        parts = _contiguous_parts(n1, n2)
        for part in parts:
            for u in bits(part):
                if rows[u] & part:
                    raise ValueError(f"row {u} has an edge inside its part")
        self._set(rows, parts)

    def _set(self, rows: Sequence[int], parts: tuple,
             m: Optional[int] = None) -> None:
        self.n = len(rows)
        self.adj = tuple(rows)
        self.m = sum(map(int.bit_count, rows)) // 2 if m is None else m
        self._parts = parts
        self.v1, self.v2 = (tuple(bits(part)) for part in parts)
        self.n1, self.n2 = len(self.v1), len(self.v2)

    @classmethod
    def _from_parts(cls, rows: Sequence[int], parts: tuple,
                    m: Optional[int] = None) -> "BipartiteGraph":
        g = cls.__new__(cls)
        g._set(rows, parts, m)
        return g

    @classmethod
    def induced(cls, g, mask1: int, mask2: int) -> "BipartiteGraph":
        """Bipartite subgraph of g between two disjoint vertex masks.

        Keeps g's vertex ids; each part row is g's row restricted
        to the other part, so edges inside a part are dropped.
        A row the restriction leaves unchanged is shared with g, and a
        bipartite g restricted to its own parts is g itself: each of its
        rows already lies in the other part.
        """
        if mask1 & mask2:
            raise ValueError("parts must be disjoint")
        if (mask1 | mask2) >> g.n:
            raise ValueError(f"part masks exceed the {g.n} host vertices")
        if isinstance(g, BipartiteGraph) and (mask1, mask2) == g._parts:
            return g
        rows = [0] * g.n
        for part, other in ((mask1, mask2), (mask2, mask1)):
            for v in bits(part):
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

    def density(self) -> Fraction:
        """V1-V2 cross density: every edge joins V1 and V2, so m counts
        the cross edges."""
        cells = self.n1 * self.n2
        return Fraction(self.m, cells) if cells else Fraction(0)

    def transpose(self) -> "BipartiteGraph":
        """Swap the roles of V1 and V2; ids and rows are kept."""
        m1, m2 = self._parts
        return BipartiteGraph._from_parts(self.adj, (m2, m1), self.m)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self._parts == other._parts and self.adj == other.adj)

    __hash__ = None

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.n1}+{self.n2}, m={self.m})"


def _contiguous_parts(n1: int, n2: int) -> tuple:
    return (1 << n1) - 1, ((1 << n2) - 1) << n1


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
    neighborhood queries are single AND operations.  ``colors`` maps each
    edge (u, v), u < v, of the host to its color.
    """

    __slots__ = ("graph", "r", "rows")

    def __init__(self, graph, colors: Mapping, r: int):
        if r < 1:
            raise ValueError("need at least one color")
        n = graph.n
        rows = [[0] * n for _ in range(r)]
        seen = 0
        for u, v in graph.edges():
            try:
                c = colors[(u, v)]
            except KeyError:
                raise ValueError(f"edge ({u},{v}) has no color assigned") from None
            if not 0 <= c < r:
                raise ValueError(f"edge ({u},{v}) has color {c} outside 0..{r - 1}")
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
            seen += 1
        if len(colors) != seen:
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
    into the mask of u of each color but the last by one
    ``bytes.translate``; the last color's mask is the rest of ``adj[u]``.
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
            for i, off in enumerate(bits(up)):
                M[base + off] = colors[at + i]
        at += d
    masks = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(r - 1)]
    rows = [[0] * n for _ in range(r)]
    for u in range(n):
        line = (M[u:u * n:n] + M[u * n + u:(u + 1) * n])[::-1]
        rest = graph.adj[u]
        for c, mask in enumerate(masks):
            rows[c][u] = row = int(line.translate(mask), 2)
            rest ^= row
        rows[r - 1][u] = rest
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
    8th byte of slice b from byte j.

    What the rows cannot hold is not transposed.  The ORs of the rows'
    suffixes show each band's last row with a bit in it, and the band's
    slices stop at the multiple of 8 after that row.  A byte of the OR of
    all rows that is zero drops its slice from the band, and only the
    columns of that OR's set bits are read; the others stay 0."""
    nb = (cols + 7) >> 3
    n = len(rows)
    m = -(-n // 8) * 8
    packed = b"".join([row.to_bytes(nb, "little") for row in rows]) \
        + bytes((m - n) * nb)
    # tails[j] is the OR of the last j rows, so tails[n] is the OR of all
    tails = list(accumulate(reversed(rows), or_, initial=0))
    span = tails[n].to_bytes(nb, "little")
    live = bits(tails[n])
    # one mask each at the largest band's size: & with a positive int has
    # the length of the shorter operand
    size = m * min(nb, _BAND)
    swaps = [(s, int.from_bytes(mask.to_bytes(8, "little") * (size // 8),
                                "little")) for s, mask in _SWAPS]
    from_bytes = int.from_bytes
    out = [0] * cols
    for b0 in range(0, nb, _BAND):
        band = [b for b in range(b0, min(b0 + _BAND, nb)) if span[b]]
        if not band:
            continue
        inside = ((1 << 8 * _BAND) - 1) << 8 * b0
        h = n + 1 - bisect_left(tails, True, key=lambda t: t & inside > 0)
        h = -(-h // 8) * 8
        x = from_bytes(b"".join([packed[b:h * nb:nb] for b in band]), "little")
        for s, mask in swaps:
            t = (x ^ x >> s) & mask
            x ^= t ^ t << s
        d = x.to_bytes(h * len(band), "little")
        at = {b: i * h for i, b in enumerate(band)}
        for c in live[bisect_left(live, 8 * b0):
                      bisect_left(live, 8 * (b0 + _BAND))]:
            j = at[c >> 3] + (c & 7)
            out[c] = from_bytes(d[j:j + h:8], "little")
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
    draws = _bernoulli_rows(stream, range(n - 1, -1, -1), p)
    upper = [row << (u + 1) for u, row in enumerate(draws)]
    rows = [up | low for up, low in zip(upper, bit_columns(upper, n))]
    # each edge is one bit of the draws, which are half the rows' width
    return Graph._from_rows(n, rows, sum(map(int.bit_count, draws)))


def random_bipartite(n1: int, n2: int, p: float,
                     stream: RngStream) -> BipartiteGraph:
    """G(n1, n2, p) on V1 = [0, n1), V2 = [n1, n1 + n2): the pairs
    (u, n1 + v) of u in V1 are one ``_bernoulli_rows`` row of length n2,
    bit v standing for n1 + v, drawn in order u = 0, 1, ...  The V2 rows
    are the V1 rows' columns."""
    vertex_count_guard(n1 + n2)
    draws = _bernoulli_rows(stream, [n2] * n1, p)
    rows = [row << n1 for row in draws] + bit_columns(draws, n2)
    return BipartiteGraph._from_parts(rows, _contiguous_parts(n1, n2),
                                      sum(map(int.bit_count, draws)))


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
    adj = g.adj
    for t in range(1, retry_cap + 1):
        stream.shuffle(perm)
        side1, side2 = perm[:half], perm[half:]
        mask2 = mask_of(side2)
        cut1 = [adj[u] & mask2 for u in side1]
        cross = sum(map(int.bit_count, cut1))
        dens = Fraction(cross, cells) if cells else Fraction(0)
        if dens > best[0]:
            best = (dens, t)
        if dens >= base:
            # the count already cut side 1's rows; side 2's are cut here
            mask1 = mask_of(side1)
            rows = [0] * n
            for u, row in zip(side1, cut1):
                rows[u] = row
            for v in side2:
                rows[v] = adj[v] & mask1
            bip = BipartiteGraph._from_parts(rows, (mask1, mask2), cross)
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
    rows = [0] * n
    for no, line in lines:
        u, v = _parse_ints(line, no, 2)
        if not 0 <= u < v < n:
            raise ParseError(f"edge ({u},{v}) violates 0 <= u < v < {n}", no)
        if rows[u] >> v & 1:
            raise ParseError(f"duplicate edge ({u},{v})", no)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._from_rows(n, rows)
