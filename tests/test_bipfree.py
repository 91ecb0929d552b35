"""Tests for pattern counting, free-subgraph extraction, and the oracles."""

import itertools
import math

import pytest

from exlab import bipfree
from exlab.core import (BipartiteGraph, Failure, Graph, GuardError,
                        KUniformHypergraph, RngStream, complete_bipartite,
                        complete_graph, iter_bits, mask_of,
                        random_bipartite, random_graph)
from exlab.bipfree import (_graph_round, _pattern_free, _rsets, _sample_rows,
                           count_pattern, extract_free, extraction_target,
                           hyper_copy_guard, kpartite_count_check,
                           kpartite_instance, kpartite_instance_guard,
                           tight_instance, tight_instance_guard,
                           zarankiewicz_oracle)
from test_core import bernoulli_row_per_position


def brute_count_krr2(g):
    """Independent K_{2,2} counter by exhaustive 4-set side splits."""
    cnt = 0
    for quad in itertools.combinations(range(g.n), 4):
        for split in itertools.combinations(quad, 2):
            if min(split) != min(quad):
                continue  # count each unordered side pair once
            other = tuple(v for v in quad if v not in split)
            if all(g.has_edge(a, b) for a in split for b in other):
                cnt += 1
    return cnt


# ---------------------------------------------------------------------------
# The C(n, r) loop over every r-set: the oracle for the two-hop walk


def loop_rsets(adj, n, r):
    out = []
    for A in itertools.combinations(range(n), r):
        common = adj[A[0]]
        for v in A[1:]:
            common &= adj[v]
        if common.bit_count() >= r:
            out.append((A, common))
    return out


def loop_count(G, r):
    total = sum(math.comb(c.bit_count(), r) for _, c in loop_rsets(G.adj, G.n, r))
    assert total % 2 == 0
    return total // 2


def sampled_rows_per_edge(G, p, stream):
    """Reference sample: edge j of G.edges() is kept when position j of one
    per-position digit-rule row of length G.m is an edge."""
    kept = bernoulli_row_per_position(stream, G.m, p)
    rows = [0] * G.n
    for j, (u, v) in enumerate(G.edges()):
        if kept >> j & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def loop_round(G, r, stream, p=None):
    """The deletion round with the per-position digit rule over the edges
    and the C(n, r) loop over A; p defaults to the round's keep rate."""
    if p is None:
        p = 0.5 * G.m ** (-1.0 / (r + 1))
    rows = sampled_rows_per_edge(G, p, stream)
    work = rows[:]
    for A, common in loop_rsets(rows, G.n, r):
        cand = [w for w in iter_bits(common) if w > A[0]]
        for B in itertools.combinations(cand, r):
            cross = [(a, b) if a < b else (b, a) for a in A for b in B]
            if all(work[u] >> v & 1 for u, v in cross):
                u, v = min(cross)
                work[u] &= ~(1 << v)
                work[v] &= ~(1 << u)
    return rows, work


def walk_hosts():
    rng = RngStream(611)
    dense = random_graph(40, 0.4, rng.derive("dense"))
    # parts scattered over the host's ids, with ids outside both parts
    odd = mask_of(v for v in range(40) if v % 3 == 1)
    even = mask_of(v for v in range(40) if v % 3 == 2 and v != 5)
    return {
        "G(30, 0.3)": random_graph(30, 0.3, rng.derive("g30")),
        "G(80, 0.06)": random_graph(80, 0.06, rng.derive("g80")),
        "G(14, 0.8)": random_graph(14, 0.8, rng.derive("g14")),
        "K_7": complete_graph(7),
        "edgeless": Graph(9),
        "one edge, n < 3": Graph(2, [(0, 1)]),
        "n = 0": Graph(0),
        "K_{3,4}": complete_bipartite(3, 4),
        "G(8, 9, 0.5)": random_bipartite(8, 9, 0.5, rng.derive("bip")),
        "induced view": BipartiteGraph.induced(dense, odd, even),
        "transposed view": BipartiteGraph.induced(dense, even, odd)
                                          .transpose(),
    }


@pytest.mark.parametrize("r", [2, 3])
def test_rset_walk_matches_the_loop_over_every_rset(r):
    for name, G in walk_hosts().items():
        walk = list(_rsets(G.adj, G.n, r))
        assert walk == loop_rsets(G.adj, G.n, r), (name, r)
        copies = loop_count(G, r)
        assert count_pattern(G, r) == copies, (name, r)
        assert _pattern_free(G, r) == (not walk), (name, r)
        # the verifier counts without the walk
        assert bipfree.verify_free_subgraph(G, r, G) == (
            (False, ("copies", copies)) if copies else (True, None)), (name, r)


def test_rset_walk_meets_pattern_free_and_saturated_hosts():
    path = Graph(6, [(i, i + 1) for i in range(5)])
    assert count_pattern(path, 2) == 0 and _pattern_free(path, 2)
    # pairs of a path share at most one neighbour; single vertices share
    # their own rows
    assert list(_rsets(path.adj, path.n, 2)) == loop_rsets(path.adj, 6, 2) \
        == []
    assert list(_rsets(path.adj, path.n, 1)) == loop_rsets(path.adj, 6, 1) \
        == [((v,), path.adj[v]) for v in range(6)]
    for n in (4, 6):
        k = complete_graph(n)
        assert count_pattern(k, 2) == loop_count(k, 2) == \
            3 * math.comb(n, 4)
        assert not _pattern_free(k, 2)
    # the existence test keeps the copy-bound guard of the count
    with pytest.raises(GuardError, match=r"2\*m\^r"):
        _pattern_free(complete_graph(300), 2)
    assert list(_rsets([0b10, 0b01], 2, 3)) == []


def test_sampled_rows_equal_the_per_edge_digit_rule():
    for name, G in walk_hosts().items():
        if G.m == 0:
            continue
        for p in (0.03, 0.5, 0.97):
            bulk, single = RngStream(7).derive(name), RngStream(7).derive(name)
            rows = _sample_rows(G, p, bulk)
            assert rows == sampled_rows_per_edge(G, p, single), (name, p)
            assert bulk.position == single.position == G.m
            assert bulk._rng.getstate() == single._rng.getstate()


@pytest.mark.parametrize("r", [2, 3])
def test_graph_round_matches_the_loop_round(r):
    hosts = walk_hosts()
    hosts["G(40, 0.5)"] = random_graph(40, 0.5, RngStream(8))
    for name, G in hosts.items():
        if G.m == 0:
            continue
        for seed in range(4):
            walk, loop = RngStream(seed).derive(name), \
                RngStream(seed).derive(name)
            H = _graph_round(G, r, walk)
            rows, work = loop_round(G, r, loop)
            assert list(H.adj) == work, (name, r, seed)
            assert walk._rng.getstate() == loop._rng.getstate()
            assert loop_count(H, r) == 0


@pytest.mark.parametrize("r", [2, 3])
def test_graph_round_breaks_copies_as_the_loop_round(r, monkeypatch):
    # at the round's own keep rate a sample rarely holds a copy, so keep
    # 70 % of the edges and let the deletions do real work
    monkeypatch.setattr(bipfree, "_sample_rows",
                        lambda G, p, stream: _sample_rows(G, 0.7, stream))
    deleted = 0
    for name, G in walk_hosts().items():
        if G.m == 0:
            continue
        walk, loop = RngStream(5).derive(name), RngStream(5).derive(name)
        H = _graph_round(G, r, walk)
        rows, work = loop_round(G, r, loop, 0.7)
        assert list(H.adj) == work and loop_count(H, r) == 0, (name, r)
        deleted += sum(row.bit_count() for row in rows) // 2 - H.m
    assert deleted > 10


def test_count_small_complete_bipartite():
    assert count_pattern(complete_bipartite(2, 2), 2) == 1
    assert count_pattern(complete_bipartite(3, 3), 2) == 9
    assert count_pattern(complete_bipartite(2, 4), 2) == 6


def test_count_agrees_with_brute_force():
    for seed in (8, 21, 34):
        g = random_graph(9, 0.6, RngStream(seed))
        assert count_pattern(g, 2) == brute_count_krr2(g)


def test_count_dual_route_graph_vs_hypergraph():
    # a graph on the parts of kpartite_instance(2, r, n) holds only
    # part-aligned copies of K_{r,r}, so the graph count and the k-partite
    # check's count are two routes to one number
    for r, n, keep in ((2, 4, 0.5), (2, 5, 0.3), (3, 3, 0.6)):
        inst = kpartite_instance(2, r, n)
        s = RngStream(50 + n)
        edges = [e for e in sorted(inst.hypergraph.edges, key=sorted)
                 if s.random() < keep]
        H = KUniformHypergraph(inst.hypergraph.n, 2, edges)
        g = Graph(H.n, [tuple(e) for e in edges])
        count = count_pattern(g, r)
        assert count == kpartite_count_check(H, inst.parts, r).count > 0, \
            (r, n)


def test_verify_free_subgraph_counts_as_count_pattern():
    # the verifier's count reads only the rows of H, never the r-set walk
    rng = RngStream(71)
    hosts = [random_graph(40, 0.5, RngStream(0)),
             random_graph(60, 0.1, rng.derive("sparse")),
             random_bipartite(9, 11, 0.6, rng.derive("bip")),
             complete_graph(9)]
    for r in (2, 3):
        for G in hosts:
            copies = count_pattern(G, r)
            assert bipfree.verify_free_subgraph(G, r, G) == (
                (False, ("copies", copies)) if copies else (True, None)), r


def test_count_lemma_bound_on_corpus():
    rng = RngStream(300)
    for i in range(50):
        n = 10 + rng.randrange(15)
        g = random_graph(n, 0.5, rng.derive("corpus", i))
        if g.m > 200 or g.m < 1:
            continue
        assert count_pattern(g, 2) <= 2 * g.m ** 2


def test_count_guard_names_estimate():
    with pytest.raises(GuardError, match=r"2\*m\^r"):
        count_pattern(complete_graph(300), 2)
    # bounds of more digits than int-to-str allows are never formatted
    with pytest.raises(GuardError, match=r"2\*m\^r"):
        count_pattern(complete_graph(4), 100000)
    with pytest.raises(GuardError, match=r"\(k!\)\^r"):
        hyper_copy_guard(3, 6000, 6000)
    # K_{1,1} is an edge, not a pattern: every entry point refuses r < 2
    for call in (lambda: count_pattern(complete_graph(4), 1),
                 lambda: _pattern_free(complete_graph(4), 1),
                 lambda: extract_free(complete_graph(4), 1, RngStream(1)),
                 lambda: bipfree.verify_free_subgraph(
                     complete_graph(4), 1, Graph(4))):
        with pytest.raises(GuardError, match="r >= 2"):
            call()


def test_extraction_target_arithmetic():
    assert extraction_target(9, 2) == 2   # ceil(9^(2/3)/4)
    assert extraction_target(64, 2) == 4  # 16/4 exactly
    assert extraction_target(100, 2) == 6


def test_extract_single_edge_short_circuit():
    g = Graph(2, [(0, 1)])
    res = extract_free(g, 2, RngStream(1))
    assert res.subgraph is g
    assert res.trials_used == 0 and res.target_size == 1


def test_extract_pattern_free_input_returned_unchanged():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # a path has no K_{2,2}
    res = extract_free(g, 2, RngStream(2))
    assert res.subgraph is g and res.trials_used == 0


def test_extract_k33():
    res = extract_free(complete_bipartite(3, 3), 2, RngStream(3))
    assert res.target_size == 2
    assert res.subgraph.m >= 2
    assert count_pattern(res.subgraph, 2) == 0
    assert res.trials_used >= 1


def test_extract_from_a_bipartite_host_returns_a_graph_on_its_rows():
    host = complete_bipartite(3, 4).transpose()  # V1 now sits at the high ids
    res = extract_free(host, 2, RngStream(3))
    assert type(res.subgraph) is Graph and res.subgraph.n == host.n
    assert res.subgraph.m >= res.target_size == 2
    assert all(res.subgraph.adj[u] & ~host.adj[u] == 0 for u in range(host.n))
    assert bipfree.verify_free_subgraph(host, 2, res.subgraph) == (True, None)


def test_extract_random_graphs():
    rng = RngStream(40)
    for seed in range(5):
        g = random_graph(40 + 4 * seed, 0.5, rng.derive("g", seed))
        res = extract_free(g, 2, rng.derive("x", seed))
        assert res.subgraph.m >= res.target_size == extraction_target(g.m, 2)
        assert count_pattern(res.subgraph, 2) == 0
        # subgraph relation
        for u in range(g.n):
            assert res.subgraph.adj[u] & ~g.adj[u] == 0


def test_extract_retry_cap_reports_best():
    assert extract_free(complete_bipartite(3, 3), 2, RngStream(3),
                        retry_cap=0) == \
        Failure("extract_free", "retry cap exhausted",
                {"target": 2, "best_edges": 0, "best_subgraph": None})


def test_tight_instance():
    inst = tight_instance(2, 2, 64)
    assert (inst.graph.n1, inst.graph.n2) == (4, 16)
    assert inst.graph.m == 64
    assert inst.kst_bound() == 32
    with pytest.raises(GuardError):
        tight_instance(2, 2, 65)
    with pytest.raises(GuardError):
        tight_instance(3, 2, 16)  # s < r


def test_tight_instance_guard_accepts_exactly_the_powers():
    for r in (2, 3, 5):
        powers = {a ** (r + 1) for a in range(1, 40)}
        for m in range(-2, 1100):
            try:
                sides = tight_instance_guard(r, r, m)
            except GuardError:
                assert m not in powers, (r, m)
            else:
                assert sides[0] ** (r + 1) == m and sides[1] == sides[0] ** r
    assert tight_instance_guard(100000, 100000, 1) == (1, 1)
    for m in (2, 10 ** 6, 10 ** 6 + 1, 10 ** 400):
        with pytest.raises(GuardError):
            tight_instance_guard(100000, 100000, m)


def test_zarankiewicz_k416_frozen():
    # counting bound 16*(r-1) + C(4,2)*(s-1) = 22 matches the best witness
    z = zarankiewicz_oracle(tight_instance(2, 2, 64))
    assert z.exact
    assert z.size == 22
    assert z.size <= 32


def test_zarankiewicz_k24_brute_force():
    z = zarankiewicz_oracle(tight_instance(2, 2, 8))
    best = 0
    # each of the 4 V vertices takes a submask of the 2-element U side
    for rows in itertools.product(range(4), repeat=4):
        if sum(1 for r_ in rows if r_ == 3) <= 1:  # at most one full pair
            best = max(best, sum(r_.bit_count() for r_ in rows))
    assert z.exact and z.size == best == 5


def test_zarankiewicz_trivial_star():
    # K_{1,1}: its one edge holds no K_{r,s} whatever r and s
    for r, s in [(2, 2), (3, 5), (7, 7)]:
        z = zarankiewicz_oracle(tight_instance(r, s, 1))
        assert z.exact and z.size == 1 and z.rows == (1,)


def test_zarankiewicz_r_not_equal_s_brute_force():
    # K_{3,9}: the V rows are masks over U's 3 vertices, so an assignment
    # is a multiset of 9 masks; no pair of U may lie in 3 rows (K_{2,3})
    # and no 2 rows may be full (K_{3,2})
    z = zarankiewicz_oracle(tight_instance(2, 3, 27))
    best = 0
    pairs = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(3), 2)]
    for rows in itertools.combinations_with_replacement(range(8), 9):
        if any(sum(1 for r_ in rows if r_ & p == p) >= 3 for p in pairs):
            continue
        if rows.count(7) >= 2:
            continue
        best = max(best, sum(r_.bit_count() for r_ in rows))
    assert z.exact and z.size == best == 15


def test_zarankiewicz_relabel_invariance():
    # the witness stays pattern-free under any relabelling of U and of V
    inst = tight_instance(2, 2, 27)
    base = zarankiewicz_oracle(inst)
    pu, pv = [2, 0, 1], [5, 2, 0, 8, 4, 1, 3, 7, 6]
    moved = [mask_of(pu[u] for u in iter_bits(row)) for row in base.rows]
    rows = tuple(moved[pv[i]] for i in range(9))
    assert bipfree.verify_zarankiewicz(
        inst, bipfree.ZarankiewiczResult(base.size, base.upper, True,
                                         base.nodes, rows)) == (True, None)


# Every tight instance within the oracle guard at budgets None and 10:
# (r, s, m, budget) -> (size, upper, exact, nodes, rows)
ORACLE_FROZEN = {
    (2, 2, 1, None): (1, 1, True, 2, (1,)),
    (2, 2, 1, 10): (1, 1, True, 2, (1,)),
    (2, 2, 8, None): (5, 5, True, 5, (3, 2, 2, 2)),
    (2, 2, 8, 10): (5, 5, True, 5, (3, 2, 2, 2)),
    (2, 2, 27, None): (12, 12, True, 19, (6, 5, 3, 4, 4, 4, 4, 4, 4)),
    (2, 2, 27, 10): (11, 12, False, 11, (7, 4, 4, 4, 4, 4, 4, 4, 4)),
    (2, 2, 64, None): (22, 22, True, 52,
                       (12, 10, 9, 6, 5, 3, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8)),
    (2, 2, 64, 10): (12, 22, False, 11,
                     (15, 8, 8, 8, 8, 8, 8, 8, 8, 0, 0, 0, 0, 0, 0, 0)),
    (2, 3, 1, None): (1, 1, True, 2, (1,)),
    (2, 3, 1, 10): (1, 1, True, 2, (1,)),
    (2, 3, 8, None): (6, 6, True, 5, (3, 3, 2, 2)),
    (2, 3, 8, 10): (6, 6, True, 5, (3, 3, 2, 2)),
    (2, 3, 27, None): (15, 15, True, 19, (6, 6, 5, 5, 3, 3, 4, 4, 4)),
    (2, 3, 27, 10): (14, 15, False, 11, (7, 6, 5, 3, 4, 4, 4, 4, 4)),
    (2, 3, 64, None): (28, 28, True, 71,
                       (12, 12, 10, 10, 9, 9, 6, 6, 5, 5, 3, 3, 8, 8, 8, 8)),
    (2, 3, 64, 10): (18, 28, False, 11,
                     (15, 12, 10, 9, 6, 5, 3, 8, 8, 0, 0, 0, 0, 0, 0, 0)),
    (2, 4, 1, None): (1, 1, True, 2, (1,)),
    (2, 4, 1, 10): (1, 1, True, 2, (1,)),
    (2, 4, 8, None): (7, 7, True, 5, (3, 3, 3, 2)),
    (2, 4, 8, 10): (7, 7, True, 5, (3, 3, 3, 2)),
    (2, 4, 27, None): (18, 18, True, 34, (6, 6, 6, 5, 5, 5, 3, 3, 3)),
    (2, 4, 27, 10): (15, 18, False, 11, (7, 7, 7, 4, 4, 4, 4, 4, 4)),
    (2, 4, 64, None): (33, 33, True, 93,
                       (14, 12, 12, 10, 10, 9, 9, 9, 6, 6, 5, 5, 5, 3, 3, 3)),
    (2, 4, 64, 10): (22, 34, False, 11,
                     (15, 14, 14, 9, 9, 5, 5, 3, 3, 0, 0, 0, 0, 0, 0, 0)),
    (3, 3, 1, None): (1, 1, True, 2, (1,)),
    (3, 3, 1, 10): (1, 1, True, 2, (1,)),
    (3, 3, 16, None): (16, 16, True, 9, (3, 3, 3, 3, 3, 3, 3, 3)),
    (3, 3, 16, 10): (16, 16, True, 9, (3, 3, 3, 3, 3, 3, 3, 3)),
    (3, 4, 1, None): (1, 1, True, 2, (1,)),
    (3, 4, 1, 10): (1, 1, True, 2, (1,)),
    (3, 4, 16, None): (16, 16, True, 9, (3, 3, 3, 3, 3, 3, 3, 3)),
    (3, 4, 16, 10): (16, 16, True, 9, (3, 3, 3, 3, 3, 3, 3, 3)),
    (3, 5, 1, None): (1, 1, True, 2, (1,)),
    (3, 5, 1, 10): (1, 1, True, 2, (1,)),
    (3, 5, 16, None): (16, 16, True, 9, (3, 3, 3, 3, 3, 3, 3, 3)),
    (3, 5, 16, 10): (16, 16, True, 9, (3, 3, 3, 3, 3, 3, 3, 3)),
    (4, 4, 1, None): (1, 1, True, 2, (1,)),
    (4, 4, 1, 10): (1, 1, True, 2, (1,)),
    (4, 4, 32, None): (32, 32, True, 17,
                       (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3)),
    (4, 4, 32, 10): (18, 32, False, 11,
                     (3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0)),
    (4, 5, 1, None): (1, 1, True, 2, (1,)),
    (4, 5, 1, 10): (1, 1, True, 2, (1,)),
    (4, 5, 32, None): (32, 32, True, 17,
                       (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3)),
    (4, 5, 32, 10): (18, 32, False, 11,
                     (3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0)),
    (4, 6, 1, None): (1, 1, True, 2, (1,)),
    (4, 6, 1, 10): (1, 1, True, 2, (1,)),
    (4, 6, 32, None): (32, 32, True, 17,
                       (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3)),
    (4, 6, 32, 10): (18, 32, False, 11,
                     (3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0)),
}


def test_zarankiewicz_frozen_on_every_tight_instance():
    within = set()
    for r in (2, 3, 4):
        for s in range(r, r + 3):
            for a in range(1, 7):
                sides = tight_instance_guard(r, s, a ** (r + 1))
                try:
                    bipfree.zarankiewicz_oracle_guard(*sides)
                except GuardError:
                    continue
                within |= {(r, s, a ** (r + 1), b) for b in (None, 10)}
    assert set(ORACLE_FROZEN) == within
    for (r, s, m, budget), want in ORACLE_FROZEN.items():
        z = zarankiewicz_oracle(tight_instance(r, s, m), budget=budget)
        assert (z.size, z.upper, z.exact, z.nodes, z.rows) == want


def test_zarankiewicz_budget_bracket():
    z = zarankiewicz_oracle(tight_instance(2, 2, 64), budget=10)
    assert not z.exact
    assert z.size <= z.upper == 22


def test_zarankiewicz_guards():
    with pytest.raises(GuardError):
        zarankiewicz_oracle(tight_instance(2, 2, 216))  # |U| = 6 > 5
    with pytest.raises(GuardError):
        zarankiewicz_oracle(tight_instance(2, 2, 125))  # |V| = 25 > 20
    with pytest.raises(GuardError):
        zarankiewicz_oracle(tight_instance(3, 3, 81))  # |V| = 27 > 20


def test_kpartite_instance_shapes():
    inst = kpartite_instance(2, 2, 2)
    assert [len(p) for p in inst.parts] == [2, 4]
    assert inst.hypergraph.m == 8
    inst3 = kpartite_instance(3, 2, 2)
    assert [len(p) for p in inst3.parts] == [2, 4, 16]
    assert inst3.hypergraph.m == 128  # n^q with q = 7


def test_kpartite_instance_guard_at_the_desk_bound():
    # n^q <= MAX_KPARTITE_EDGES = 10^5 with q = 1 + r + ... + r^(k-1)
    for k, r, n in [(2, 2, 46), (4, 2, 2), (2, 15, 2), (3, 3, 2)]:
        assert kpartite_instance_guard(k, r, n) == \
            n ** ((r ** k - 1) // (r - 1)) <= 10 ** 5
    assert kpartite_instance_guard(2, 2, 4) == kpartite_instance(2, 2, 4) \
        .hypergraph.m
    for k, r, n in [(2, 2, 47), (5, 2, 2), (2, 16, 2), (3, 3, 3),
                    (10 ** 9, 2, 2), (2, 10 ** 9, 2), (2, 2, 10 ** 400),
                    (1, 2, 2), (2, 1, 2), (2, 2, 1)]:
        with pytest.raises(GuardError):
            kpartite_instance_guard(k, r, n)


def test_kpartite_check_complete_example():
    inst = kpartite_instance(2, 2, 2)
    chk = kpartite_count_check(inst.hypergraph, inst.parts, 2)
    assert chk.count == 6
    assert chk.a == 2
    assert chk.bound == 0       # stated offset a-k+1 = 1 gives C(1,2) = 0
    assert chk.proof_bound == 1  # base-case offset a-k+2 = 2 gives C(2,2) = 1
    assert chk.passed and chk.proof_passed


def test_kpartite_check_random_subgraphs():
    for k in (2, 3):
        inst = kpartite_instance(k, 2, 2)
        edges = sorted(inst.hypergraph.edges, key=lambda e: tuple(sorted(e)))
        for seed in range(10):
            s = RngStream(500 + seed).derive("sub", k)
            sub = [e for e in edges if s.random() < 0.5]
            chk = kpartite_count_check(
                KUniformHypergraph(inst.hypergraph.n, k, sub), inst.parts, 2)
            assert chk.passed


# The reference count of the k-partite pattern: every part structure that r
# pairwise-disjoint edges assemble, tested transversal by transversal


def edge_key(e) -> tuple:
    return tuple(sorted(e))


def copies_of_matching(combo, k: int):
    """All part structures assembling the r disjoint edges into a copy."""
    orderings_per_edge = [list(itertools.permutations(sorted(e))) for e in combo]
    for orderings in itertools.product(*orderings_per_edge):
        yield tuple(frozenset(o[i] for o in orderings) for i in range(k))


def matching_copies(edges, k: int, r: int):
    """Each part structure that r pairwise-disjoint edges assemble, once,
    in the order the combinations of the sorted edges first meet it."""
    seen: set[frozenset] = set()
    for combo in itertools.combinations(sorted(edges, key=edge_key), r):
        union = set()
        for e in combo:
            if union & e:
                break
            union |= e
        else:
            for parts in copies_of_matching(combo, k):
                key = frozenset(parts)
                if key not in seen:
                    seen.add(key)
                    yield parts


def count_hyper(G: KUniformHypergraph, r: int) -> int:
    hyper_copy_guard(G.k, G.m, r)
    return sum(all(frozenset(t) in G.edges for t in itertools.product(*parts))
               for parts in matching_copies(G.edges, G.k, r))


def test_kpartite_check_part_aligned_count_matches_enumeration():
    for k in (2, 3):
        inst = kpartite_instance(k, 2, 2)
        edges = sorted(inst.hypergraph.edges, key=lambda e: tuple(sorted(e)))
        for seed in range(8):
            s = RngStream(900 + seed).derive("sub", k)
            keep = s.random()
            H = KUniformHypergraph(inst.hypergraph.n, k,
                                   [e for e in edges if s.random() < keep])
            chk = kpartite_count_check(H, inst.parts, 2)
            assert chk.count == count_hyper(H, 2), (k, seed)
    inst = kpartite_instance(2, 3, 3)  # parts of sizes 3 and 27, r = 3
    s = RngStream(77)
    H = KUniformHypergraph(inst.hypergraph.n, 2,
                           [e for e in sorted(inst.hypergraph.edges, key=sorted)
                            if s.random() < 0.6])
    count = kpartite_count_check(H, inst.parts, 3).count
    assert count == count_hyper(H, 3) > 0
    full = kpartite_instance(3, 2, 2)
    assert kpartite_count_check(full.hypergraph, full.parts, 2).count == 720


def test_kpartite_check_keeps_the_copy_bound_guard():
    inst = kpartite_instance(2, 2, 29)  # m = 29^3 edges: 4*C(m,2) > 10^9
    with pytest.raises(GuardError, match=r"copy bound \(k!\)\^r"):
        kpartite_count_check(inst.hypergraph, inst.parts, 2)


def test_kpartite_check_validation():
    inst = kpartite_instance(2, 2, 2)
    with pytest.raises(GuardError):
        kpartite_count_check(inst.hypergraph, [inst.parts[0]], 2)
    with pytest.raises(GuardError):
        kpartite_count_check(inst.hypergraph,
                             [inst.parts[0][:1], (1,) + inst.parts[1]], 2)
    with pytest.raises(GuardError, match="r >= 2"):
        kpartite_count_check(KUniformHypergraph(4, 2, [(0, 2)]),
                             [(0, 1), (2, 3)], 1)
    bad = KUniformHypergraph(6, 2, [frozenset((0, 1))])
    with pytest.raises(GuardError):
        # parts of sizes 2 and 4, but the edge stays inside part one
        kpartite_count_check(bad, [(0, 1), (2, 3, 4, 5)], 2)
