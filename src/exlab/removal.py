"""Monochromatic triangle covers, sparse-pair deletion, and grid corners.

A tripartite host carries an edge coloring together with a family of
pairwise edge-disjoint monochromatic triangles whose V1-V2 edges exactly
cover the V1-V2 edge set.  Averaging over apexes extracts a color and a
pair of linear-size vertex subsets spanning provably few edges of that
color; deleting those edges and restricting to the subsets drops one
color from the cross part, and iterating descends to a single-color base
case unless the triangle census already exceeds the cover size, in which
case two monochromatic triangles share an edge (a diamond).

The grid application colors the line graph of the N x N grid by the
color of the intersection point.  The N^2 point triangles form an exact
cover, every monochromatic corner (x, y), (x+d, y), (x, y+d) shows up as
a diamond on the vertical-horizontal edge of (x, y), and conversely, so
the diamond scan finds a corner exactly when one exists.  An exhaustive
corner oracle cross-checks every pipeline verdict.

All counting runs on bitmask adjacency rows; thresholds are compared as
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    BipartiteGraph,
    EdgeColoring,
    GuardError,
    ParseError,
    RngStream,
    _data_lines,
    _parse_ints,
    grid_lines,
    iter_bits,
    mask_of,
    verified,
)

# Part-size guard for the cubic triangle scans.
CENSUS_MAX_PART = 300
# Side guard for the exhaustive corner scan (N^2 cells, 2N offsets each).
ORACLE_MAX_N = 300
# Side guard for the reduction pipeline; keeps the cross-check affordable.
PIPELINE_MAX_N = 100
# Color guard for the descent: the recorded proof bound's denominator has
# 2^(r+3) factors, at most about 4000 digits at r = 7 for parts the census
# admits and twice that at r = 8, past the interpreter's int-to-str limit.
ITERATE_MAX_COLORS = 7


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class TriangleCover:
    """Edge-disjoint monochromatic triangles covering the V1-V2 edges.

    ``triangles`` holds (v0, v1, v2, color) quadruples in host vertex ids,
    one triangle per V1-V2 edge.  Strict covers additionally require the
    cross part to be complete, so exactly n^2 triangles; relaxed covers
    arise during the deletion descent where cross edges have been removed.
    Build through :func:`triangle_cover`, which checks every invariant.
    """

    coloring: EdgeColoring
    triangles: tuple
    strict: bool = True

    @property
    def graph(self) -> BipartiteGraph:
        return self.coloring.graph

    @property
    def n(self) -> int:
        return self.graph.n1

    @property
    def c(self) -> Fraction:
        """Apex-part size ratio |V0| / n."""
        return Fraction(self.graph.n0, self.graph.n1)

    @property
    def r(self) -> int:
        return self.coloring.r

    @property
    def m(self) -> int:
        """Number of covered V1-V2 edges (= number of triangles)."""
        return len(self.triangles)


@dataclass(frozen=True)
class Diamond:
    """Two monochromatic triangles of one color sharing a V1-V2 edge."""

    edge: tuple
    apexes: tuple
    color: int


@dataclass(frozen=True)
class SparsePair:
    """Color class spanning few edges between two linear-size subsets.

    ``v1`` and ``v2`` are equal-size tuples of host vertex ids; ``edges``
    is the measured number of ``color``-edges between them.
    """

    v1: tuple
    v2: tuple
    color: int
    edges: int
    stats: Optional[dict] = None


@dataclass(frozen=True)
class RemovalTrace:
    """Descent record of the iterated sparse-pair deletion.

    ``levels`` holds one dict per level with the measured census, the
    deletion step data, and the proof-side arithmetic; ``bound`` is the
    global census floor n^3 / (4cr)^(2^(r+3)) and ``bound_met`` whether
    the entry census reached it (recorded, not asserted).
    """

    verdict: str
    levels: tuple
    bound: Fraction
    bound_met: bool
    diamond: Optional[Diamond] = None
    stats: Optional[dict] = None


@dataclass(frozen=True)
class GridColoring:
    """Color matrix over the N x N grid; ``cells[x-1][y-1]`` in 0..r-1."""

    N: int
    r: int
    cells: tuple

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("grid side must be >= 1")
        if self.r < 1:
            raise ValueError("need at least one color")
        rows = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", rows)
        if len(rows) != self.N or any(len(row) != self.N for row in rows):
            raise ValueError(f"cell matrix must be {self.N} x {self.N}")
        for row in rows:
            for ch in row:
                if not 0 <= ch < self.r:
                    raise ValueError(f"cell color {ch} outside 0..{self.r - 1}")

    def color_at(self, x: int, y: int) -> int:
        """Color of grid point (x, y), coordinates 1-based."""
        return self.cells[x - 1][y - 1]


@dataclass(frozen=True)
class Corner:
    """Monochromatic corner (x, y), (x+d, y), (x, y+d) with d != 0."""

    x: int
    y: int
    d: int
    color: int


# ---------------------------------------------------------------------------
# Cover construction and validation


def triangle_cover(coloring: EdgeColoring, triangles,
                   strict: bool = True) -> TriangleCover:
    """Validate and freeze a triangle cover; raises ValueError on any defect.

    Checks part membership and color range per triangle, existence and
    monochromaticity of all three edges, pairwise edge-disjointness, and
    that the V1-V2 edges of the triangles exactly cover the cross edge
    set.  With ``strict`` the cross part must also be complete.  Each edge
    is read from rows: the host row first, then the triangle's color row,
    then the rows of edges claimed by earlier triangles; ``color_of`` only
    names the edge's color in the monochromaticity error.
    """
    g = coloring.graph
    if not isinstance(g, BipartiteGraph):
        raise ValueError("cover host must be tripartite")
    if g.n0 < 1:
        raise ValueError("cover host needs a nonempty apex part V0")
    if g.n1 < 1 or g.n1 != g.n2:
        raise ValueError(f"cover parts must satisfy |V1| = |V2| >= 1, "
                         f"got {g.n1} and {g.n2}")
    n = g.n1
    if strict and g.cross_m() != n * n:
        raise ValueError(f"strict cover needs a complete cross part: "
                         f"{g.cross_m()} of {n * n} edges present")
    tris = tuple(tuple(t) for t in triangles)
    adj = g.adj
    claimed = [0] * g.n
    for t in tris:
        if len(t) != 4:
            raise ValueError(f"triangle {t} is not (v0, v1, v2, color)")
        v0, v1, v2, ch = t
        for part, v in enumerate(t[:3]):
            if not (isinstance(v, int) and v >= 0 and g.mask(part) >> v & 1):
                raise ValueError(f"{'vertex' if part else 'apex'} {v} "
                                 f"outside V{part}")
        if not (isinstance(ch, int) and 0 <= ch < coloring.r):
            raise ValueError(f"color {ch} outside 0..{coloring.r - 1}")
        crow = coloring.rows[ch]
        for u, v in ((v0, v1), (v0, v2), (v1, v2)):
            if not adj[u] >> v & 1:
                raise ValueError(f"triangle edge ({u},{v}) missing from host")
            if not crow[u] >> v & 1:
                raise ValueError(f"triangle {t} not monochromatic: "
                                 f"edge ({u},{v}) has color "
                                 f"{coloring.color_of(u, v)}")
            if claimed[u] >> v & 1:
                raise ValueError(f"edge ({u},{v}) used by two triangles")
            claimed[u] |= 1 << v
    # distinct existing cross edges, one per triangle: count fixes coverage
    if len(tris) != g.cross_m():
        raise ValueError(f"triangles cover {len(tris)} of {g.cross_m()} "
                         f"V1-V2 edges")
    return TriangleCover(coloring, tris, strict)


# ---------------------------------------------------------------------------
# Census


def _census_guard(g) -> None:
    if not isinstance(g, BipartiteGraph):
        raise GuardError("triangle scan needs a tripartite host")
    if max(g.n0, g.n1, g.n2) > CENSUS_MAX_PART:
        raise GuardError(f"part size {max(g.n0, g.n1, g.n2)} exceeds "
                         f"enumeration guard {CENSUS_MAX_PART}")


def _as_coloring(arg) -> EdgeColoring:
    return arg.coloring if isinstance(arg, TriangleCover) else arg


def triangle_census(arg) -> tuple[tuple, int]:
    """Count monochromatic triangles (one vertex per part) per color.

    Accepts a tripartite EdgeColoring or a TriangleCover.  One color class
    at a time, scans each V1-V2 edge of that color and counts apexes via
    one AND of the two color rows, so the work is n^2 word operations.
    Returns (per-color tuple, total).
    """
    col = _as_coloring(arg)
    g = col.graph
    _census_guard(g)
    mask0 = g.mask(0)
    m2 = g.mask(2)
    counts = []
    for rows in col.rows:
        count = 0
        for a in g.v1:
            apexes = rows[a] & mask0
            if apexes:
                for b in iter_bits(rows[a] & m2):
                    count += (apexes & rows[b]).bit_count()
        counts.append(count)
    return tuple(counts), sum(counts)


def _apex_mono_count(col: EdgeColoring, v: int) -> int:
    """Monochromatic triangles through the V0 vertex v, all colors."""
    g = col.graph
    m1 = g.mask(1)
    m2 = g.mask(2)
    total = 0
    for ch in range(col.r):
        row = col.mono_mask(ch, v)
        for a in iter_bits(row & m1):
            total += (col.mono_mask(ch, a) & row & m2).bit_count()
    return total


# ---------------------------------------------------------------------------
# Sparse pair extraction


def sparse_pair_step(cover: TriangleCover) -> SparsePair:
    """Extract a color and subset pair spanning few edges of that color.

    Requires m >= n^2/2 cross edges (GuardError otherwise, naming the
    clause).  Sets delta = (census + 1) / n^3, takes the apexes carrying
    at least m/(2|V0|) cover triangles, picks the first one lying in
    fewer than 4 delta n^2 monochromatic triangles, and returns its most
    popular cover-triangle color with the touched V1 and V2 subsets.
    Every averaging guarantee is re-checked exactly and failure raises
    AssertionError; the returned edge count is measured directly.
    """
    g = cover.graph
    col = cover.coloring
    n, q, r = cover.n, g.n0, cover.r
    m = cover.m
    if 2 * m < n * n:
        raise GuardError(f"cross-edge hypothesis failed: m = {m} < "
                         f"n^2/2 = {Fraction(n * n, 2)}")
    per_color, total = triangle_census(col)
    delta = Fraction(total + 1, n ** 3)
    budget = 4 * delta * n * n
    cnt = [0] * q
    by_apex = [[] for _ in range(q)]
    for t in cover.triangles:
        cnt[t[0]] += 1
        by_apex[t[0]].append(t)
    thr = Fraction(m, 2 * q)
    heavy = [v for v in range(q) if cnt[v] >= thr]
    # light apexes carry < m/2 triangles in total, heavy ones <= n each
    if len(heavy) * 2 * n < m:
        raise AssertionError(f"heavy apex count {len(heavy)} below floor "
                             f"{Fraction(m, 2 * n)}")
    apex = mono_v = None
    for v in heavy:
        mv = _apex_mono_count(col, v)
        if mv < budget:
            apex, mono_v = v, mv
            break
    if apex is None:
        raise AssertionError("every heavy apex exceeds the triangle budget")
    col_cnt: dict = {}
    for t in by_apex[apex]:
        col_cnt[t[3]] = col_cnt.get(t[3], 0) + 1
    best = max(col_cnt.values())
    color = min(ch for ch, k in col_cnt.items() if k == best)
    if best * 2 * q * r < m:
        raise AssertionError(f"popular color count {best} below m/(2|V0|r)")
    if best * 4 * q * r < n * n:
        raise AssertionError(f"popular color count {best} below n/(4cr)")
    tri = [t for t in by_apex[apex] if t[3] == color]
    s1 = sorted({t[1] for t in tri})
    s2 = sorted({t[2] for t in tri})
    k = min(len(s1), len(s2))
    s1, s2 = s1[:k], s2[:k]
    sel2 = mask_of(s2)
    e_color = sum((col.mono_mask(color, a) & sel2).bit_count() for a in s1)
    # each such edge closes a monochromatic triangle at the chosen apex
    if e_color > budget:
        raise AssertionError(f"{e_color} edges of color {color} exceed "
                             f"4 delta n^2 = {budget}")
    stats = {"m": m, "census": total, "per_color": per_color, "delta": delta,
             "apex": apex, "apex_cover": cnt[apex], "apex_mono": mono_v,
             "heavy": len(heavy), "heavy_floor": Fraction(m, 2 * n),
             "color_count": best, "color_floor": Fraction(n * n, 4 * q * r),
             "edge_bound": budget}
    return SparsePair(tuple(s1), tuple(s2), color, e_color, stats)


def _delete_sparse_color(cover: TriangleCover, step: SparsePair) -> TriangleCover:
    """Restrict to the pair, dropping its edges of the sparse color.

    Keeps all of V0 and the host's vertex ids: V0 keeps its edges into the
    pair, each foot its edges to V0 and to the other side except those of
    the sparse color.  The surviving cover triangles are exactly those with
    both feet in the pair and a different color, so the relaxed cover
    revalidates by construction.
    """
    g = cover.graph
    col = cover.coloring
    m0 = g.mask(0)
    sel1, sel2 = mask_of(step.v1), mask_of(step.v2)
    sparse = col.rows[step.color]
    rows = [0] * g.n
    for v in g.v0:
        rows[v] = g.adj[v] & (sel1 | sel2)
    for part, other in ((sel1, sel2), (sel2, sel1)):
        for v in iter_bits(part):
            rows[v] = g.adj[v] & (m0 | (other & ~sparse[v]))
    sub = BipartiteGraph._from_parts(rows, (m0, sel1, sel2), g.labels)
    subcol = EdgeColoring.from_rows(
        sub, [[cr[v] & row for v, row in enumerate(rows)] for cr in col.rows],
        col.r)
    tris = tuple(t for t in cover.triangles
                 if sel1 >> t[1] & 1 and sel2 >> t[2] & 1
                 and t[3] != step.color)
    return triangle_cover(subcol, tris, strict=False)


# ---------------------------------------------------------------------------
# Iterated deletion


def removal_iterate_guard(r: int) -> None:
    """GuardError unless r <= ITERATE_MAX_COLORS, so the exact proof bound
    n^3/(4cr)^(2^(r+3)) stays printable."""
    if r > ITERATE_MAX_COLORS:
        raise GuardError(f"{r} colors exceed the descent guard "
                         f"{ITERATE_MAX_COLORS}")


def removal_iterate(cover: TriangleCover) -> RemovalTrace:
    """Run the sparse-pair deletion descent and report how it ended.

    Levels stop in one of three ways.  If the census ever exceeds the
    cover size, two monochromatic triangles share an edge by pigeonhole
    and the diamond scan must produce one (verdict ``diamond_found``).
    If the cross part drops below half density the sparse branch of the
    counting argument applies; and with one cross color left the
    single-color floor n^5/(64 q^2) - n s/4 is checked against the
    census (verdict ``bound_holds`` either way).  Otherwise a sparse
    pair is extracted and deleted, losing one cross color per level.

    The global census floor n^3 / (4cr)^(2^(r+3)) and the proof-side
    sizes n_i = n^(2^i) / (4qr)^(2^i - 1) are recorded alongside the
    measured values at every level.
    """
    removal_iterate_guard(cover.r)
    g = cover.graph
    n0_, r0, q = cover.n, cover.r, g.n0
    c = cover.c
    bound = Fraction(n0_ ** 3) / (4 * c * r0) ** (2 ** (r0 + 3))
    proof_n = [Fraction(n0_)]
    for i in range(1, r0):
        proof_n.append(Fraction(n0_ ** (2 ** i), (4 * q * r0) ** (2 ** i - 1)))
    levels = []
    current = cover
    r_eff = r0
    level = 0
    diamond = None
    verdict = None
    while True:
        ni, mi = current.n, current.m
        per, tot = triangle_census(current.coloring)
        si = ni * ni - mi
        rec = {"level": level, "r_eff": r_eff, "n": ni, "m": mi, "s": si,
               "census": tot, "per_color": per,
               "delta": Fraction(tot + 1, ni ** 3)}
        if tot > mi:
            # more monochromatic triangles than edge-disjoint slots
            diamond = diamond_find(current.coloring)
            if diamond is None:
                raise AssertionError("census exceeds cover size but no "
                                     "diamond found")
            rec["event"] = "diamond"
            levels.append(rec)
            verdict = "diamond_found"
            break
        if 2 * mi < ni * ni:
            rec["event"] = "sparse_half"
            rec["case_bound"] = (proof_n[level - 2] * proof_n[level - 1] ** 2
                                 / 10 if level >= 2 else None)
            levels.append(rec)
            verdict = "bound_holds"
            break
        if r_eff == 1:
            # cross edges are single-colored here; quadratic counting floor
            base_bound = Fraction(ni ** 5, 64 * q * q) - Fraction(ni * si, 4)
            rec["event"] = "base_case"
            rec["base_bound"] = base_bound
            if Fraction(tot) < base_bound - 1:
                raise AssertionError(f"single-color floor failed: census "
                                     f"{tot} < {base_bound} - 1")
            levels.append(rec)
            verdict = "bound_holds"
            break
        step = sparse_pair_step(current)
        rec["event"] = "step"
        rec["color"] = step.color
        rec["apex"] = step.stats["apex"]
        rec["deleted"] = step.edges
        rec["k"] = len(step.v1)
        rec["proof_n_next"] = Fraction(ni * ni, 4 * q * r_eff)
        levels.append(rec)
        current = _delete_sparse_color(current, step)
        r_eff -= 1
        level += 1
    tot0 = levels[0]["census"]
    stats = {"n": n0_, "q": q, "c": c, "r": r0, "census": tot0,
             "per_color": levels[0]["per_color"], "proof_n": tuple(proof_n)}
    return RemovalTrace(verdict, tuple(levels), bound,
                        Fraction(tot0) >= bound, diamond, stats)


# ---------------------------------------------------------------------------
# Diamond scan


def diamond_find(arg) -> Optional[Diamond]:
    """First V1-V2 edge lying in two monochromatic triangles, or None.

    Scans cross edges in canonical order; for each, the apexes closing a
    monochromatic triangle are one AND of the two color rows.  A None
    return certifies that no diamond exists.
    """
    col = _as_coloring(arg)
    g = col.graph
    _census_guard(g)
    mask0 = g.mask(0)
    m2 = g.mask(2)
    for a in g.v1:
        for b in iter_bits(g.adj[a] & m2):
            ch = col.color_of(a, b)
            apexes = col.mono_mask(ch, a) & col.mono_mask(ch, b) & mask0
            if apexes.bit_count() >= 2:
                bits = iter_bits(apexes)
                return Diamond((a, b), (next(bits), next(bits)), ch)
    return None


# ---------------------------------------------------------------------------
# Grid application


def grid_cover_guard(N: int) -> None:
    """GuardError unless the line host of the N x N grid fits the triangle
    scans: its largest part, the 2N - 1 antidiagonals, has at most
    CENSUS_MAX_PART vertices."""
    if 2 * N - 1 > CENSUS_MAX_PART:
        raise GuardError(f"grid side {N} gives {2 * N - 1} antidiagonals, "
                         f"over the enumeration guard {CENSUS_MAX_PART}")


def grid_cover(gc: GridColoring) -> TriangleCover:
    """Strict triangle cover of the grid line host, colored by points.

    Each edge of the line host corresponds to a unique grid point; the
    point triangles (antidiagonal, vertical, horizontal through one
    point) are monochromatic by construction and edge-disjoint, one per
    V1-V2 edge.
    """
    N = gc.N
    grid_cover_guard(N)
    g = grid_lines(N)
    n0 = 2 * N - 1

    def point_color(u: int, v: int) -> int:
        if u < n0:
            s = u + 2
            if v < n0 + N:
                x = v - n0 + 1
                y = s - x
            else:
                y = v - n0 - N + 1
                x = s - y
        else:
            x = u - n0 + 1
            y = v - n0 - N + 1
        return gc.color_at(x, y)

    col = EdgeColoring(g, point_color, gc.r)
    tris = tuple((x + y - 2, n0 + x - 1, n0 + N + y - 1, gc.color_at(x, y))
                 for x in range(1, N + 1) for y in range(1, N + 1))
    return triangle_cover(col, tris, strict=True)


def corner_oracle(gc: GridColoring) -> tuple:
    """All monochromatic corners by exhaustive scan, both signs of d."""
    if gc.N > ORACLE_MAX_N:
        raise GuardError(f"grid side {gc.N} exceeds oracle guard "
                         f"{ORACLE_MAX_N}")
    N = gc.N
    out = []
    for x in range(1, N + 1):
        for y in range(1, N + 1):
            ch = gc.color_at(x, y)
            for d in range(-(N - 1), N):
                if d == 0 or not (1 <= x + d <= N and 1 <= y + d <= N):
                    continue
                if (gc.color_at(x + d, y) == ch
                        and gc.color_at(x, y + d) == ch):
                    out.append(Corner(x, y, d, ch))
    return tuple(out)


def _corner_from_diamond(gc: GridColoring, dia: Diamond) -> Corner:
    """Decode a diamond on the grid line host into a corner.

    The shared edge names the point (x, y); an apex off the point's own
    antidiagonal gives the offset d (0 when there is none).  The corner is
    re-verified by ``verify_corner`` before it is returned.
    """
    N = gc.N
    n0 = 2 * N - 1
    a, b = dia.edge
    x = a - n0 + 1
    y = b - n0 - N + 1
    d = next((apex + 2 - (x + y) for apex in dia.apexes
              if apex + 2 != x + y), 0)
    return verified(verify_corner, gc, Corner(x, y, d, dia.color))


def verify_corner(gc: GridColoring, corner: Corner):
    """(ok, reason) for the corner (x, y), (x+d, y), (x, y+d): reason is
    ("offset",) when d = 0, else ("off_grid", p) or ("color", p) for the
    first of the points off the grid or not of colour ``corner.color``."""
    x, y, d = corner.x, corner.y, corner.d
    if d == 0:
        return False, ("offset",)
    for p in ((x, y), (x + d, y), (x, y + d)):
        if not (1 <= p[0] <= gc.N and 1 <= p[1] <= gc.N):
            return False, ("off_grid", p)
        if gc.color_at(*p) != corner.color:
            return False, ("color", p)
    return True, None


def grid_pipeline_guard(N: int) -> None:
    """GuardError unless the grid side N is at most PIPELINE_MAX_N, which
    keeps the exhaustive cross-check affordable."""
    if N > PIPELINE_MAX_N:
        raise GuardError(f"grid side {N} exceeds pipeline guard "
                         f"{PIPELINE_MAX_N}")


def grid_pipeline(gc: GridColoring) -> Optional[Corner]:
    """Find a monochromatic corner through the line-host reduction.

    Builds the strict point-triangle cover, scans for a diamond, and
    converts it into a corner.  Every verdict is cross-checked against
    the exhaustive oracle: a corner must appear in the oracle list, and
    a None verdict is only returned when the oracle list is empty, since
    any corner forces a diamond on its vertical-horizontal edge.
    """
    grid_pipeline_guard(gc.N)
    cover = grid_cover(gc)
    dia = diamond_find(cover.coloring)
    oracle = corner_oracle(gc)
    if dia is None:
        if oracle:
            raise AssertionError("diamond scan missed a corner")
        return None
    corner = _corner_from_diamond(gc, dia)
    if corner not in oracle:
        raise AssertionError("converted corner not confirmed by the "
                             "exhaustive scan")
    return corner


# ---------------------------------------------------------------------------
# Grid generation and files


def random_grid(N: int, r: int, stream: RngStream) -> GridColoring:
    """Uniform random r-coloring of the N x N grid."""
    cells = tuple(tuple(stream.randrange(r) for _ in range(N))
                  for _ in range(N))
    return GridColoring(N, r, cells)


def read_grid(path) -> GridColoring:
    """Parse a grid file: N (optionally with r), then N rows of colors."""
    lines = _data_lines(path)
    try:
        no, head = next(lines)
    except StopIteration:
        raise ParseError("empty file", 1) from None
    parts = head.split()
    if len(parts) not in (1, 2):
        raise ParseError(f"expected 'N' or 'N r', got {head!r}", no)
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-integer field in {head!r}", no) from None
    N = vals[0]
    if N < 1:
        raise ParseError(f"grid side must be >= 1, got {N}", no)
    rows = []
    last = no
    for no2, line in lines:
        rows.append(_parse_ints(line, no2, N))
        last = no2
    if len(rows) != N:
        raise ParseError(f"expected {N} rows, got {len(rows)}", last)
    r = vals[1] if len(vals) == 2 else max(max(row) for row in rows) + 1
    try:
        return GridColoring(N, r, tuple(tuple(row) for row in rows))
    except ValueError as err:
        raise ParseError(str(err), last) from None
