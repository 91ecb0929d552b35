"""Tests for monochromatic triangle covers, deletion descent, and corners."""
from fractions import Fraction

import pytest

from exlab.core import (
    EdgeColoring,
    Graph,
    GuardError,
    ParseError,
    RngStream,
    iter_bits,
    mask_of,
)
from exlab.removal import (
    GRID_MAX_COLORS,
    ITERATE_MAX_COLORS,
    Corner,
    Diamond,
    GridColoring,
    RemovalTrace,
    SparsePair,
    TriangleCover,
    corner_oracle,
    diamond_find,
    grid_coloring_guard,
    grid_cover,
    grid_lines,
    grid_pipeline,
    random_grid,
    read_grid,
    removal_iterate,
    removal_iterate_guard,
    sparse_pair_step,
    triangle_census,
    triangle_cover,
)
from exlab.removal import _delete_sparse_color


def write_grid(gc: GridColoring, path) -> None:
    """Write side length, then one row of color indices per line.

    The color count is appended to the first line only when it exceeds
    the largest cell value plus one, which is what reading infers.
    """
    top = max(max(row) for row in gc.cells) + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{gc.N}\n" if gc.r == top else f"{gc.N} {gc.r}\n")
        for row in gc.cells:
            fh.write(" ".join(str(ch) for ch in row) + "\n")


# corner-free 2-coloring of the 4x4 grid, first in enumeration order
WITNESS4 = ((0, 1, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 0))
# 2-colored Latin-square cover whose descent steps with k = 2 into the base
LATIN_CTAB = ((0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0))


def mono_grid(N):
    return GridColoring(N, 1, tuple(tuple(0 for _ in range(N))
                                    for _ in range(N)))


def checkerboard(N):
    return GridColoring(N, 2, tuple(tuple((x + y) % 2 for y in range(1, N + 1))
                                    for x in range(1, N + 1)))


def tri_parts(q, n):
    """Contiguous part masks V0 = [0, q), V1 = [q, q+n), V2 = [q+n, q+2n)."""
    return (1 << q) - 1, ((1 << n) - 1) << q, ((1 << n) - 1) << (q + n)


def complete_tripartite_coloring(q, n, colorfn, r):
    """A coloring of the complete K_{q,n,n} and its part masks."""
    edges = []
    for w in range(q):
        for v in range(q, q + 2 * n):
            edges.append((w, v))
    for a in range(q, q + n):
        for b in range(q + n, q + 2 * n):
            edges.append((a, b))
    return EdgeColoring(Graph(q + 2 * n, edges), colorfn, r), tri_parts(q, n)


def single_apex_coloring():
    return complete_tripartite_coloring(1, 2, lambda u, v: 0, 1)


def two_apex_cover():
    col, parts = complete_tripartite_coloring(2, 2, lambda u, v: 0, 1)
    tris = ((0, 2, 4, 0), (0, 3, 5, 0), (1, 2, 5, 0), (1, 3, 4, 0))
    return triangle_cover(col, parts, tris)


def latin_cover(ctab, r=2):
    # apex w hosts triangles (w, 4+a, 8+((a+w)%4)); every edge colored by
    # the unique triangle through it, so the cover is valid by construction
    q = n = 4
    colors = {}
    for w in range(q):
        for a in range(n):
            b = (a + w) % n
            colors[(w, q + a)] = ctab[w][a]
            colors[(w, q + n + b)] = ctab[w][a]
            colors[(q + a, q + n + b)] = ctab[w][a]
    col = EdgeColoring(Graph(q + 2 * n, sorted(colors)), colors, r)
    tris = tuple((w, q + a, q + n + (a + w) % n, ctab[w][a])
                 for w in range(q) for a in range(n))
    return triangle_cover(col, tri_parts(q, n), tris, strict=True)


def relabelled_delete(cover, step):
    """The deletion that rebuilt the pair on fresh contiguous ids, kept as
    the oracle of the mask restriction."""
    g = cover.graph
    col = cover.coloring
    q = cover.q
    k = len(step.v1)
    idx1 = {a: q + i for i, a in enumerate(step.v1)}
    idx2 = {b: q + k + j for j, b in enumerate(step.v2)}
    edges = []
    colors = {}
    for w in range(q):
        row = g.adj[w]
        for a, na in idx1.items():
            if row >> a & 1:
                edges.append((w, na))
                colors[(w, na)] = col.color_of(w, a)
        for b, nb in idx2.items():
            if row >> b & 1:
                edges.append((w, nb))
                colors[(w, nb)] = col.color_of(w, b)
    for a, na in idx1.items():
        for b, nb in idx2.items():
            if g.has_edge(a, b):
                ch = col.color_of(a, b)
                if ch != step.color:
                    edges.append((na, nb))
                    colors[(na, nb)] = ch
    subcol = EdgeColoring(Graph(q + 2 * k, edges), colors, col.r)
    tris = tuple((t[0], idx1[t[1]], idx2[t[2]], t[3])
                 for t in cover.triangles
                 if t[1] in idx1 and t[2] in idx2 and t[3] != step.color)
    return triangle_cover(subcol, tri_parts(q, k), tris, strict=False)


def three_color_grid():
    cells = tuple(tuple(2 if (i == 3 and WITNESS4[i][j] == 1)
                        else WITNESS4[i][j] for j in range(4))
                  for i in range(4))
    return GridColoring(4, 3, cells)


def ref_census(col, parts):
    """Independent triple loop over the parts, no bitmask shortcuts."""
    g = col.graph
    v0, v1, v2 = (list(iter_bits(m)) for m in parts)
    counts = [0] * col.r
    for w in v0:
        for a in v1:
            for b in v2:
                if not (g.has_edge(w, a) and g.has_edge(w, b)
                        and g.has_edge(a, b)):
                    continue
                ch = col.color_of(a, b)
                if col.color_of(w, a) == ch and col.color_of(w, b) == ch:
                    counts[ch] += 1
    return tuple(counts), sum(counts)


def per_edge_census(col, parts):
    """The census by one color_of call per V1-V2 edge, the apexes of each
    edge counted in its own color's rows."""
    mask0, mask1, mask2 = parts
    counts = [0] * col.r
    for a in iter_bits(mask1):
        for b in iter_bits(col.graph.adj[a] & mask2):
            ch = col.color_of(a, b)
            counts[ch] += (col.rows[ch][a] & col.rows[ch][b]
                           & mask0).bit_count()
    return tuple(counts), sum(counts)


def ref_corners(gc):
    """Row-pair scan: same-color horizontal pair, then check the third cell."""
    found = set()
    N = gc.N
    for y in range(1, N + 1):
        for x1 in range(1, N + 1):
            for x2 in range(1, N + 1):
                d = x2 - x1
                if d == 0 or not 1 <= y + d <= N:
                    continue
                ch = gc.color_at(x1, y)
                if gc.color_at(x2, y) == ch and gc.color_at(x1, y + d) == ch:
                    found.add(Corner(x1, y, d, ch))
    return found


def transposed_diamond_exists(col, parts):
    """Diamond scan with the V2 loop outermost."""
    g = col.graph
    mask0, mask1, mask2 = parts
    for b in iter_bits(mask2):
        for a in iter_bits(mask1):
            if not g.has_edge(a, b):
                continue
            ch = col.color_of(a, b)
            apexes = col.rows[ch][a] & col.rows[ch][b] & mask0
            if apexes.bit_count() >= 2:
                return True
    return False


# ---------------------------------------------------------------------------
# Census


def test_census_single_apex_complete_is_n_squared():
    col, parts = complete_tripartite_coloring(1, 2, lambda u, v: 0, 1)
    assert triangle_census(col, parts) == ((4,), 4)


def test_census_mono_grid_n2():
    assert triangle_census(grid_cover(mono_grid(2))) == ((6,), 6)


def test_census_checkerboard_n3():
    assert triangle_census(grid_cover(checkerboard(3))) == ((7, 4), 11)


def test_census_mono_grid_closed_form():
    # point triangles plus one corner triangle per corner, both offsets
    N = 10
    per, total = triangle_census(grid_cover(mono_grid(N)))
    assert total == N * N + 2 * sum(k * k for k in range(1, N))
    assert per == (total,)


def test_census_matches_reference_on_random_grids():
    for seed in range(10):
        rng = RngStream(901).derive("census", seed)
        gc = random_grid(6, 2 + seed % 2, rng)
        cov = grid_cover(gc)
        assert triangle_census(cov.coloring, cov.parts) == \
            ref_census(cov.coloring, cov.parts)


def test_census_matches_reference_on_random_tripartite():
    for seed in range(10):
        rng = RngStream(902).derive("tri", seed)
        q, n, r = 3, 4, 3
        edges = []
        for w in range(q):
            for v in range(q, q + 2 * n):
                if rng.randrange(10) < 7:
                    edges.append((w, v))
        for a in range(q, q + n):
            for b in range(q + n, q + 2 * n):
                if rng.randrange(10) < 7:
                    edges.append((a, b))
        g = Graph(q + 2 * n, edges)
        col = EdgeColoring(g, {e: rng.randrange(r) for e in edges}, r)
        parts = tri_parts(q, n)
        assert triangle_census(col, parts) == ref_census(col, parts)


def test_census_by_color_class_matches_per_edge_colors():
    for seed in range(10):
        rng = RngStream(904).derive("classes", seed)
        cov = grid_cover(random_grid(7, 2 + seed % 2, rng))
        assert triangle_census(cov) == per_edge_census(cov.coloring,
                                                       cov.parts)
    cov = latin_cover(LATIN_CTAB)
    sub = _delete_sparse_color(cov, sparse_pair_step(cov))
    assert triangle_census(sub) == per_edge_census(sub.coloring, sub.parts) \
        == ref_census(sub.coloring, sub.parts)


def test_census_accepts_cover_argument():
    cov = grid_cover(checkerboard(3))
    assert triangle_census(cov) == triangle_census(cov.coloring, cov.parts)


def test_census_guards():
    big = EdgeColoring(Graph(303), {}, 1)
    with pytest.raises(GuardError, match="enumeration guard"):
        triangle_census(big, tri_parts(301, 1))
    with pytest.raises(GuardError, match="tripartite"):
        triangle_census(EdgeColoring(Graph(3, [(0, 1)]), {(0, 1): 0}, 1))


# ---------------------------------------------------------------------------
# Cover validation


def test_cover_strict_grid_accepts():
    rng = RngStream(903).derive("cover")
    cov = grid_cover(random_grid(5, 2, rng))
    assert cov.m == 25 and cov.n == 5 and cov.r == 2
    assert cov.c == Fraction(9, 5)
    assert cov.strict


def test_cover_rejects_missing_triangle():
    cov = grid_cover(mono_grid(2))
    with pytest.raises(ValueError, match="cover 3 of 4"):
        triangle_cover(cov.coloring, cov.parts, cov.triangles[:-1])


def test_cover_rejects_edge_reuse():
    cov = grid_cover(mono_grid(2))
    tris = (cov.triangles[0],) + cov.triangles[:3]
    with pytest.raises(ValueError, match="used by two"):
        triangle_cover(cov.coloring, cov.parts, tris)


def test_cover_rejects_wrong_color():
    cov = grid_cover(checkerboard(3))
    t = cov.triangles[0]
    tris = ((t[0], t[1], t[2], 1 - t[3]),) + cov.triangles[1:]
    with pytest.raises(ValueError, match="not monochromatic"):
        triangle_cover(cov.coloring, cov.parts, tris)


def test_cover_rejects_out_of_part():
    cov = grid_cover(mono_grid(2))
    t = cov.triangles[0]
    bad = ((t[1], t[1], t[2], t[3]),) + cov.triangles[1:]
    with pytest.raises(ValueError, match="outside V0"):
        triangle_cover(cov.coloring, cov.parts, bad)
    bad = ((t[0], t[0], t[2], t[3]),) + cov.triangles[1:]
    with pytest.raises(ValueError, match="outside V1"):
        triangle_cover(cov.coloring, cov.parts, bad)


def test_cover_checks_feet_against_non_contiguous_part_masks():
    # one descent level keeps host ids: V1 = {4, 7}, V2 = {8, 11} of 0..11
    cov = latin_cover(LATIN_CTAB)
    sub = _delete_sparse_color(cov, sparse_pair_step(cov))
    assert sub.parts[1:] == (1 << 4 | 1 << 7, 1 << 8 | 1 << 11)
    assert triangle_cover(sub.coloring, sub.parts, sub.triangles,
                          strict=False) == sub
    t = sub.triangles[0]
    for foot, bad, part in ((1, 5, "V1"), (2, 10, "V2"), (1, 8, "V1"),
                            (2, -1, "V2"), (1, 10 ** 6, "V1"),
                            (1, "4", "V1"), (0, 4, "V0")):
        moved = t[:foot] + (bad,) + t[foot + 1:]
        with pytest.raises(ValueError, match=f"outside {part}"):
            triangle_cover(sub.coloring, sub.parts,
                           (moved,) + sub.triangles[1:], strict=False)


def test_cover_rejects_missing_edge_and_bad_quadruple():
    edges = [(0, 1), (0, 3), (1, 3)]
    col = EdgeColoring(Graph(5, edges), {e: 0 for e in edges}, 1)
    parts = tri_parts(1, 2)
    with pytest.raises(ValueError, match="missing from host"):
        triangle_cover(col, parts, ((0, 2, 4, 0),), strict=False)
    with pytest.raises(ValueError, match="v0, v1, v2"):
        triangle_cover(col, parts, ((0, 1, 3),), strict=False)
    with pytest.raises(ValueError, match="outside 0"):
        triangle_cover(col, parts, ((0, 1, 3, 5),), strict=False)


def test_cover_checks_the_host_before_the_color_rows():
    # color 0's rows hold the complete K_{1,2,2}, the host lacks (0, 2)
    edges = [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
    full = Graph(5, edges + [(0, 2)])
    col = EdgeColoring.from_rows(Graph(5, edges), [full.adj], 1)
    with pytest.raises(ValueError, match=r"\(0,2\) missing from host"):
        triangle_cover(col, tri_parts(1, 2), ((0, 2, 4, 0),), strict=False)


def test_cover_strictness_split():
    # host missing one cross edge: relaxed accepts, strict refuses
    edges = []
    for v in range(1, 5):
        edges.append((0, v))
    cross = [(1, 3), (2, 3), (2, 4)]
    col = EdgeColoring(Graph(5, edges + cross), lambda u, v: 0, 1)
    parts = tri_parts(1, 2)
    tris = ((0, 1, 3, 0), (0, 2, 4, 0))
    with pytest.raises(ValueError, match="complete cross part"):
        triangle_cover(col, parts, tris, strict=True)
    with pytest.raises(ValueError, match="cover 2 of 3"):
        triangle_cover(col, parts, tris, strict=False)
    full = tris + ((0, 2, 3, 0),)
    with pytest.raises(ValueError, match="used by two"):
        # apex edge (0,2) cannot serve two triangles
        triangle_cover(col, parts, full, strict=False)


def test_cover_rejects_non_tripartite_host():
    # K_{2,2} on 0..3 with an apex 4 joined to all of it
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)] + [(v, 4) for v in range(4)]
    col = EdgeColoring(Graph(5, edges), lambda u, v: 0, 1)
    for parts, message in (((0, 0b11, 0b1100), "nonempty apex part"),
                           ((0b10000, 0b1, 0b1110), "got 1 and 3"),
                           ((0b10000, 0b11, 0b110), "overlap"),
                           ((0b10001, 0b11, 0b1100), "overlap"),
                           ((0b110000, 0b11, 0b1100), "exceed the 5"),
                           ((-1 << 4, 0b11, 0b1100), "exceed the 5")):
        with pytest.raises(ValueError, match=message):
            triangle_cover(col, parts, (), strict=False)
    tris = ((4, 0, 2, 0), (4, 1, 3, 0))
    with pytest.raises(ValueError, match="used by two"):
        triangle_cover(col, (0b10000, 0b11, 0b1100), tris + ((4, 0, 3, 0),))


# ---------------------------------------------------------------------------
# Sparse pair step


def test_step_mono_grid_n2_frozen():
    sp = sparse_pair_step(grid_cover(mono_grid(2)))
    assert (sp.v1, sp.v2, sp.color, sp.edges) == ((3,), (5,), 0, 1)
    assert sp.stats["delta"] == Fraction(7, 8)
    assert sp.stats["apex"] == 0
    assert sp.stats["heavy"] == 3
    assert sp.stats["color_count"] == 1
    assert sp.stats["edge_bound"] == Fraction(14)
    assert sp.stats["apex_mono"] == 1


def test_step_guard_sparse_cross():
    edges = [(0, 1), (0, 3), (1, 3)]
    col = EdgeColoring(Graph(5, edges), {e: 0 for e in edges}, 1)
    cov = triangle_cover(col, tri_parts(1, 2), ((0, 1, 3, 0),), strict=False)
    with pytest.raises(GuardError, match="cross-edge"):
        sparse_pair_step(cov)


def test_step_latin_frozen():
    sp = sparse_pair_step(latin_cover(LATIN_CTAB))
    assert (sp.v1, sp.v2, sp.color, sp.edges) == ((4, 7), (8, 11), 0, 2)
    assert sp.stats["apex"] == 0


def test_step_clauses_on_random_grids():
    for seed in range(5):
        rng = RngStream(904).derive("step", seed)
        gc = random_grid(15, 2, rng)
        cov = grid_cover(gc)
        sp = sparse_pair_step(cov)
        n, q, r = cov.n, cov.q, cov.r
        col = cov.coloring
        # equal sizes at least n^2/(4qr)
        assert len(sp.v1) == len(sp.v2)
        assert len(sp.v1) * 4 * q * r >= n * n
        # measured edge count, recounted the slow way
        direct = sum(1 for a in sp.v1 for b in sp.v2
                     if col.color_of(a, b) == sp.color)
        assert direct == sp.edges
        # sparse against the census-derived budget
        _, total = ref_census(col, cov.parts)
        assert sp.edges * n <= 4 * (total + 1)
        assert all(a in g_range for a, g_range in
                   zip(sp.v1, [range(q, q + n)] * len(sp.v1)))
        assert list(sp.v1) == sorted(sp.v1)
        assert list(sp.v2) == sorted(sp.v2)


# ---------------------------------------------------------------------------
# Deletion descent


def test_iterate_mono_grid_finds_diamond():
    tr = removal_iterate(grid_cover(mono_grid(2)))
    assert tr.verdict == "diamond_found"
    assert tr.diamond == Diamond((3, 5), (0, 1), 0)
    assert len(tr.levels) == 1
    assert tr.levels[0]["event"] == "diamond"
    assert tr.levels[0]["census"] == 6
    assert tr.bound == Fraction(1, 352638738432)
    assert tr.bound_met


def test_iterate_pigeonhole_two_apexes():
    cov = two_apex_cover()
    assert triangle_census(cov) == ((8,), 8)
    tr = removal_iterate(cov)
    assert tr.verdict == "diamond_found"
    assert tr.diamond == Diamond((2, 4), (0, 1), 0)
    assert tr.diamond == diamond_find(cov.coloring, cov.parts)


def test_iterate_corner_free_witness():
    cov = grid_cover(GridColoring(4, 2, WITNESS4))
    assert triangle_census(cov) == ((10, 6), 16)
    tr = removal_iterate(cov)
    assert tr.verdict == "bound_holds"
    assert tr.diamond is None
    assert [lv["event"] for lv in tr.levels] == ["step", "sparse_half"]
    lv0 = tr.levels[0]
    assert (lv0["color"], lv0["apex"], lv0["deleted"], lv0["k"]) == (0, 1, 1, 1)
    assert lv0["proof_n_next"] == Fraction(2, 7)
    assert tr.stats["proof_n"] == (Fraction(4), Fraction(2, 7))
    assert tr.bound_met


def test_iterate_three_color_proof_sizes():
    gc = three_color_grid()
    assert corner_oracle(gc) == ()
    tr = removal_iterate(grid_cover(gc))
    assert tr.verdict == "bound_holds"
    assert tr.stats["proof_n"] == (Fraction(4), Fraction(4, 21),
                                   Fraction(4, 9261))
    assert tr.levels[0]["proof_n_next"] == Fraction(4, 21)


def test_iterate_latin_two_levels():
    tr = removal_iterate(latin_cover(LATIN_CTAB))
    assert tr.verdict == "bound_holds"
    assert [lv["event"] for lv in tr.levels] == ["step", "base_case"]
    lv0, lv1 = tr.levels
    assert (lv0["k"], lv0["deleted"], lv0["color"]) == (2, 2, 0)
    assert lv0["proof_n_next"] == Fraction(1, 2)
    assert (lv1["n"], lv1["m"], lv1["census"]) == (2, 2, 2)
    assert lv1["per_color"] == (0, 2)
    assert lv1["base_bound"] == Fraction(-31, 32)
    assert tr.bound == Fraction(1, 2 ** 90)
    assert tr.bound_met


def test_iterate_records_descending_r():
    tr = removal_iterate(latin_cover(LATIN_CTAB))
    assert isinstance(tr, RemovalTrace)
    r_effs = [lv["r_eff"] for lv in tr.levels]
    assert r_effs == sorted(r_effs, reverse=True)
    assert tr.stats["q"] == 4 and tr.stats["c"] == Fraction(1)


@pytest.mark.parametrize("cover", [
    latin_cover(LATIN_CTAB),
    grid_cover(GridColoring(4, 2, WITNESS4)),
    grid_cover(three_color_grid()),
], ids=["latin", "witness4", "three-color"])
def test_descent_restricts_in_host_ids_as_relabelling_did(cover):
    steps = sum(lv["event"] == "step" for lv in removal_iterate(cover).levels)
    assert steps >= 1
    root = cover.graph
    ours, oracle = cover, cover
    for _ in range(steps):
        step = sparse_pair_step(ours)
        ours = _delete_sparse_color(ours, step)
        oracle = relabelled_delete(oracle, sparse_pair_step(oracle))
        g = ours.graph
        assert g.n == root.n
        for part in range(3):
            assert ours.parts[part] & ~cover.parts[part] == 0
        assert ours.parts[1:] == (mask_of(step.v1), mask_of(step.v2))
        # the order-preserving map from host ids to the oracle's compact ids
        kept = list(iter_bits(ours.parts[0] | ours.parts[1] | ours.parts[2]))
        pos = {v: i for i, v in enumerate(kept)}

        def compact(row):
            return mask_of(pos[v] for v in iter_bits(row))

        assert all(g.adj[v] == 0 for v in range(g.n) if v not in pos)
        assert [compact(g.adj[v]) for v in kept] == list(oracle.graph.adj)
        assert [[compact(row[v]) for v in kept]
                for row in ours.coloring.rows] == \
            [list(row) for row in oracle.coloring.rows]
        assert tuple((pos[w], pos[a], pos[b], ch)
                     for w, a, b, ch in ours.triangles) == oracle.triangles
        assert [m.bit_count() for m in ours.parts] == \
            [m.bit_count() for m in oracle.parts]


def test_iterate_color_guard_boundary():
    assert ITERATE_MAX_COLORS == 7
    removal_iterate_guard(7)
    with pytest.raises(GuardError, match="descent guard 7"):
        removal_iterate_guard(8)
    rng = RngStream(912).derive("colors")
    tr = removal_iterate(grid_cover(random_grid(15, 7, rng)))
    assert len(str(tr.bound)) > 1000
    with pytest.raises(GuardError, match="8 colors exceed"):
        removal_iterate(grid_cover(random_grid(15, 8, rng)))


# ---------------------------------------------------------------------------
# Diamond scan


def test_diamond_single_apex_certified_none():
    # every cross edge closes exactly one triangle: no second apex exists
    col, parts = single_apex_coloring()
    assert triangle_census(col, parts) == ((4,), 4)
    assert diamond_find(col, parts) is None


def test_diamond_two_apex_frozen():
    dia = diamond_find(two_apex_cover())
    assert dia == Diamond((2, 4), (0, 1), 0)


def test_diamond_against_transposed_dual():
    for seed in range(20):
        rng = RngStream(905).derive("dia", seed)
        gc = random_grid(5, 2 + seed % 2, rng)
        cov = grid_cover(gc)
        col = cov.coloring
        dia = diamond_find(col, cov.parts)
        assert (dia is not None) == transposed_diamond_exists(col, cov.parts)
        if dia is not None:
            a, b = dia.edge
            w1, w2 = dia.apexes
            assert w1 != w2
            assert cov.parts[1] >> a & 1 and cov.parts[2] >> b & 1
            for u, v in ((a, b), (w1, a), (w1, b), (w2, a), (w2, b)):
                assert col.color_of(min(u, v), max(u, v)) == dia.color


def test_diamond_guard_non_tripartite():
    with pytest.raises(GuardError, match="tripartite"):
        diamond_find(EdgeColoring(Graph(3, [(0, 1)]), {(0, 1): 0}, 1))


# ---------------------------------------------------------------------------
# Grid application


def test_grid_lines():
    g, (mask0, mask1, mask2) = grid_lines(2)
    assert [m.bit_count() for m in (mask0, mask1, mask2)] == [3, 2, 2]
    assert g.m == 12  # 3 * N^2 lines-through-points incidences
    # every vertical meets every horizontal
    for a in iter_bits(mask1):
        for b in iter_bits(mask2):
            assert g.has_edge(a, b)
    # the antidiagonal x+y=2 passes only through (1,1)
    s2 = 0
    assert mask0 >> s2 & 1
    assert g.degree(s2) == 2
    # x+y=3 passes through (1,2) and (2,1)
    assert g.degree(1) == 4
    assert grid_lines(3)[0].m == 27
    # built unchecked, the rows pass the checked constructor
    g4, _ = grid_lines(4)
    assert Graph.from_adjacency(g4.n, g4.adj) == g4


def test_grid_cover_edge_colors_decode_points():
    rng = RngStream(906).derive("decode")
    gc = random_grid(3, 3, rng)
    col = grid_cover(gc).coloring
    n0 = 5
    # vertical 2 meets horizontal 3 at (2, 3)
    assert col.color_of(n0 + 1, n0 + 3 + 2) == gc.color_at(2, 3)
    # antidiagonal x+y=4 meets vertical 1 at (1, 3)
    assert col.color_of(2, n0 + 0) == gc.color_at(1, 3)
    # antidiagonal x+y=4 meets horizontal 1 at (3, 1)
    assert col.color_of(2, n0 + 3 + 0) == gc.color_at(3, 1)


def point_color(gc: GridColoring):
    """Reference edge coloring of ``grid_lines(gc.N)``: edge (u, v), u < v,
    decoded from the ids to the grid point where its two lines meet."""
    N = gc.N
    n0 = 2 * N - 1

    def color(u: int, v: int) -> int:
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

    return color


@pytest.mark.parametrize("N", [1, 2, 3, 5, 15])
@pytest.mark.parametrize("r", [1, 2, 3, 7])
def test_grid_cover_rows_match_point_color_reference(N, r):
    gc = random_grid(N, r, RngStream(907).derive(N, r))
    col = grid_cover(gc).coloring
    ref = EdgeColoring(grid_lines(N)[0], point_color(gc), r)
    assert col.rows == ref.rows and col.graph == ref.graph


def test_corner_oracle_frozen_cases():
    assert corner_oracle(GridColoring(1, 1, ((0,),))) == ()
    assert corner_oracle(mono_grid(2)) == (Corner(1, 1, 1, 0),
                                           Corner(2, 2, -1, 0))
    assert corner_oracle(checkerboard(3)) == (Corner(1, 1, 2, 0),
                                              Corner(3, 3, -2, 0))


def test_corner_oracle_matches_reference():
    for seed in range(10):
        rng = RngStream(907).derive("oracle", seed)
        N = 4 + seed % 5
        gc = random_grid(N, 2 + seed % 2, rng)
        out = corner_oracle(gc)
        assert len(out) == len(set(out))
        assert set(out) == ref_corners(gc)


def test_corner_oracle_guard():
    cells = tuple(tuple(0 for _ in range(301)) for _ in range(301))
    with pytest.raises(GuardError, match="oracle guard"):
        corner_oracle(GridColoring(301, 1, cells))


def test_pipeline_mono_n2_frozen():
    assert grid_pipeline(mono_grid(2)) == Corner(1, 1, 1, 0)


def test_pipeline_corner_free_witness_none():
    gc = GridColoring(4, 2, WITNESS4)
    assert grid_pipeline(gc) is None
    assert corner_oracle(gc) == ()


def test_pipeline_exhaustive_n2():
    free = 0
    for bits in range(16):
        cells = tuple(tuple(bits >> (i * 2 + j) & 1 for j in range(2))
                      for i in range(2))
        gc = GridColoring(2, 2, cells)
        out = grid_pipeline(gc)
        oracle = corner_oracle(gc)
        assert (out is None) == (not oracle)
        if out is None:
            free += 1
        else:
            assert out in oracle
    assert free == 10


def test_pipeline_random_agreement():
    for seed in range(15):
        rng = RngStream(908).derive("pipe", seed)
        N = 3 + seed % 8
        gc = random_grid(N, 2 + seed % 2, rng)
        out = grid_pipeline(gc)
        oracle = corner_oracle(gc)
        assert (out is None) == (not oracle)
        if out is not None:
            assert out in oracle
            assert gc.color_at(out.x, out.y) == out.color
            assert gc.color_at(out.x + out.d, out.y) == out.color
            assert gc.color_at(out.x, out.y + out.d) == out.color


def test_pipeline_guard():
    cells = tuple(tuple(0 for _ in range(101)) for _ in range(101))
    with pytest.raises(GuardError, match="pipeline guard"):
        grid_pipeline(GridColoring(101, 1, cells))


# ---------------------------------------------------------------------------
# Grid coloring type and files


def test_grid_coloring_validation():
    with pytest.raises(ValueError, match="4 x 4"):
        GridColoring(4, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="outside 0..1"):
        GridColoring(2, 2, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="side"):
        GridColoring(0, 1, ())
    assert GRID_MAX_COLORS == 255
    grid_coloring_guard(255)
    assert GridColoring(1, 255, ((254,),)).r == 255
    for bad in (0, 256):
        with pytest.raises(GuardError, match=f"count {bad} outside 1..255"):
            GridColoring(1, bad, ((0,),))
    gc = GridColoring(2, 2, [[0, 1], [1, 0]])
    assert gc.cells == ((0, 1), (1, 0))
    assert gc.color_at(1, 2) == 1
    assert gc.color_at(2, 1) == 1


def test_random_grid_deterministic():
    a = random_grid(8, 3, RngStream(909).derive("g"))
    b = random_grid(8, 3, RngStream(909).derive("g"))
    assert a == b
    assert all(0 <= ch < 3 for row in a.cells for ch in row)
    flat = {ch for row in random_grid(10, 2, RngStream(910)).cells
            for ch in row}
    assert flat == {0, 1}


def test_grid_roundtrip(tmp_path):
    rng = RngStream(911).derive("io")
    gc = random_grid(6, 3, rng)
    path = tmp_path / "grid.txt"
    write_grid(gc, path)
    assert read_grid(path) == gc
    # unused top color forces an explicit color count on the first line
    flat = GridColoring(2, 3, ((0, 1), (1, 0)))
    write_grid(flat, path)
    assert path.read_text().splitlines()[0] == "2 3"
    assert read_grid(path) == flat


def test_read_grid_plain_format(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("2\n0 1\n1 0\n")
    gc = read_grid(path)
    assert gc == GridColoring(2, 2, ((0, 1), (1, 0)))
    path.write_text("# comment\n2 3\n0 1\n1 0\n")
    assert read_grid(path).r == 3


def test_read_grid_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        read_grid(path)
    path.write_text("2\n0 1\n1\n")
    with pytest.raises(ParseError, match="expected 2 fields"):
        read_grid(path)
    path.write_text("2\n0 1\n")
    with pytest.raises(ParseError, match="expected 2 rows"):
        read_grid(path)
    path.write_text("2\n0 x\n1 0\n")
    with pytest.raises(ParseError, match="non-integer"):
        read_grid(path)
    path.write_text("2 1\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="outside"):
        read_grid(path)
    # a color count past the guard fails on the header, before any row
    for head in ("2 256", "2 1000000000"):
        path.write_text(f"{head}\n0 1\n")
        with pytest.raises(ParseError, match="line 1: grid color count"):
            read_grid(path)
    # and a count inferred from the cells on the last row
    path.write_text("2\n0 1\n1 255\n")
    with pytest.raises(ParseError, match="line 3: grid color count 256"):
        read_grid(path)
