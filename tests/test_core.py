"""Tests for the shared substrate: graphs, colorings, RNG streams, file I/O."""

from fractions import Fraction

import pytest

from exlab.core import (BipartiteGraph, EdgeColoring, Graph, GuardError,
                        ParseError, RetryError, RngStream, complete_bipartite,
                        complete_graph, complete_kpartite, generate,
                        grid_lines, hypercube, iter_bits, mask_of,
                        random_coloring, random_equitable_bipartition,
                        random_graph, read_bipartite, read_coloring,
                        read_graph, try_bipartition,
                        write_coloring, write_graph)


def test_bit_helpers_round_trip():
    for mask in [0, 1, 0b1011, 1 << 70 | 5]:
        assert mask_of(iter_bits(mask)) == mask
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_rng_stream_reproducible():
    a, b = RngStream(42), RngStream(42)
    seq_a = [a.random() for _ in range(5)] + [a.randrange(100), a.getrandbits(32)]
    seq_b = [b.random() for _ in range(5)] + [b.randrange(100), b.getrandbits(32)]
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


def test_complete_graph_and_complement():
    k5 = complete_graph(5)
    assert k5.m == 10
    assert k5.density() == Fraction(1)
    empty = k5.complement()
    assert empty.m == 0
    assert empty.complement() == k5


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert (g.n1, g.n2, g.m) == (2, 3, 6)
    assert g.cross_m() == 6
    assert g.density() == Fraction(1)
    assert g.part_of(0) == 1 and g.part_of(2) == 2
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [(0, 1)])  # edge inside part V1


def test_bipartite_transpose():
    g = BipartiteGraph(2, 3, [(0, 2), (0, 3), (1, 4)], labels="abcde")
    t = g.transpose()
    assert (t.n1, t.n2) == (3, 2)
    assert t.m == g.m
    assert t.transpose() == g
    # edge (0,2)=a-c survives as c-a under the swapped layout
    assert t.labels.index("a") in [v for v in t.v2]
    assert t.has_edge(t.labels.index("a"), t.labels.index("c"))


def test_complete_kpartite():
    g = complete_kpartite([2, 2, 2])
    assert g.n == 6
    assert g.m == 12  # 15 pairs minus 3 intra-part pairs
    assert g.labels[0] == (0, 0) and g.labels[5] == (2, 1)
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)


def test_hypercube():
    q3 = hypercube(3)
    assert (q3.n, q3.m) == (8, 12)
    assert all(q3.degree(v) == 3 for v in range(8))
    for u, v in q3.edges():
        assert sum(a != b for a, b in zip(q3.labels[u], q3.labels[v])) == 1
    with pytest.raises(GuardError):
        hypercube(21)


def test_grid_lines():
    g = grid_lines(2)
    assert (g.n0, g.n1, g.n2) == (3, 2, 2)
    assert g.m == 12  # 3 * N^2 lines-through-points incidences
    # every vertical meets every horizontal
    for a in g.v1:
        for b in g.v2:
            assert g.has_edge(a, b)
    # the antidiagonal x+y=2 passes only through (1,1)
    s2 = 0
    assert g.labels[s2] == ("antidiag", 2)
    assert g.degree(s2) == 2
    # x+y=3 passes through (1,2) and (2,1)
    assert g.degree(1) == 4
    assert grid_lines(3).m == 27


def test_generate_dispatch():
    assert generate("hypercube", {"d": 3}) == hypercube(3)
    assert generate("complete", {"n": 4}) == complete_graph(4)
    assert generate("grid_lines", {"N": 2}) == grid_lines(2)
    assert generate("complete_bipartite", {"a": 2, "b": 2}) == complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        generate("moebius", {})


def test_random_graph():
    g1 = random_graph(30, 0.5, RngStream(9))
    g2 = random_graph(30, 0.5, RngStream(9))
    assert g1 == g2
    assert Fraction(1, 4) < g1.density() < Fraction(3, 4)
    assert random_graph(10, 0.0, RngStream(1)).m == 0
    assert random_graph(10, 1.0, RngStream(1)) == complete_graph(10)


def test_random_equitable_bipartition():
    g = random_graph(40, 0.5, RngStream(12))
    part = random_equitable_bipartition(g, RngStream(13))
    assert len(part.side1) == len(part.side2) == 20
    assert part.cross_density >= part.base_density == g.density()
    bip = part.bipartite
    assert bip.cross_m() == part.cross_density * 400
    # the parts are the host's own vertex ids
    assert bip.v1 == part.side1 and bip.v2 == part.side2
    with pytest.raises(RetryError):
        random_equitable_bipartition(g, RngStream(13), retry_cap=0)


def test_try_bipartition_and_induced():
    q3 = hypercube(3)
    sides = try_bipartition(q3)
    assert sides is not None
    side1, side2 = sides
    assert len(side1) == len(side2) == 4
    bip = BipartiteGraph.induced(q3, mask_of(side1), mask_of(side2))
    assert bip.m == 12 and bip.cross_m() == 12
    assert bip.v1 == tuple(side1) and bip.labels == q3.labels
    assert try_bipartition(complete_graph(3)) is None
    with pytest.raises(ValueError):
        BipartiteGraph.induced(q3, 0b011, 0b110)  # parts share vertex 1
    with pytest.raises(ValueError):
        BipartiteGraph.induced(q3, 0b1, 1 << 8)  # vertex 8 is not in Q_3


def test_induced_keeps_host_ids():
    g = random_graph(30, 0.5, RngStream(21))
    host = Graph.from_adjacency(g.n, g.adj, labels=[f"x{v}" for v in range(30)])
    side1 = [v for v in range(30) if v % 3 == 0]
    side2 = [v for v in range(30) if v % 3 == 1]
    bip = BipartiteGraph.induced(host, mask_of(side1), mask_of(side2))
    assert bip.n == 30 and bip.labels == host.labels
    assert (bip.v0, bip.v1, bip.v2) == ((), tuple(side1), tuple(side2))
    assert (bip.n0, bip.n1, bip.n2) == (0, 10, 10)
    assert bip.part_of(3) == 1 and bip.part_of(4) == 2
    with pytest.raises(ValueError):
        bip.part_of(2)  # left out of both parts
    brute = sum(host.has_edge(u, v) for u in side1 for v in side2)
    assert bip.cross_m() == bip.m == brute
    assert bip.density() == Fraction(brute, 100)
    for u, v in bip.edges():
        assert host.has_edge(u, v) and bip.part_of(u) != bip.part_of(v)
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
    assert t.adj == bip.adj and t.n == bip.n and t.labels == bip.labels
    assert t.cross_m() == bip.cross_m()
    assert t != bip
    assert t.transpose() == bip


def test_write_rejects_non_contiguous_layouts(tmp_path):
    g = random_graph(10, 0.5, RngStream(2))
    view = BipartiteGraph.induced(g, mask_of([0, 2, 4]), mask_of([1, 3, 5]))
    with pytest.raises(ValueError):
        write_graph(view, tmp_path / "view.edges")
    with pytest.raises(ValueError):
        write_graph(complete_bipartite(2, 3).transpose(), tmp_path / "t.edges")


def test_edge_coloring_validation():
    g = Graph(3, [(0, 1), (1, 2)])
    col = EdgeColoring(g, {(0, 1): 0, (1, 2): 1}, r=2)
    assert col.color_of(0, 1) == 0 and col.color_of(2, 1) == 1
    assert col.color_of(0, 2) is None
    assert col.class_size(0) == col.class_size(1) == 1
    assert col.mono_mask(0, 1) == 1 << 0
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


def test_graph_io_round_trip(tmp_path):
    g = random_graph(12, 0.4, RngStream(3))
    path = tmp_path / "g.edges"
    write_graph(g, path)
    assert read_graph(path) == g


def test_bipartite_io_round_trip(tmp_path):
    g = grid_lines(2)
    path = tmp_path / "b.edges"
    write_graph(g, path)
    back = read_bipartite(path)
    assert back == g
    assert (back.n0, back.n1, back.n2) == (3, 2, 2)


def test_coloring_io_round_trip(tmp_path):
    g = complete_graph(5)
    col = random_coloring(g, 3, RngStream(4))
    path = tmp_path / "c.edges"
    write_coloring(col, path)
    back = read_coloring(path, r=3)
    assert back.graph == g
    for u, v in g.edges():
        assert back.color_of(u, v) == col.color_of(u, v)


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

    nohead = tmp_path / "nohead.edges"
    nohead.write_text("4\n")
    with pytest.raises(ParseError):
        read_bipartite(nohead)

    badparts = tmp_path / "parts.edges"
    badparts.write_text("3\n2 2\n")
    with pytest.raises(ParseError):
        read_bipartite(badparts)

    negcol = tmp_path / "neg.edges"
    negcol.write_text("3\n0 1 -1\n")
    with pytest.raises(ParseError):
        read_coloring(negcol)


def test_read_coloring_missing_part_header(tmp_path):
    nohead = tmp_path / "nohead.edges"
    nohead.write_text("4\n")
    with pytest.raises(ParseError, match="missing part-size header") as ei:
        read_coloring(nohead, bipartite=True)
    assert ei.value.line_no == 2
