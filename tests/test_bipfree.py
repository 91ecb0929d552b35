"""Tests for pattern counting, free-subgraph extraction, and the oracles."""

import itertools

import pytest

from exlab.core import (BipartiteGraph, Graph, GuardError, KUniformHypergraph,
                        RetryError, RngStream, complete_bipartite,
                        complete_graph, random_graph)
from exlab.bipfree import (K_k_rr, K_rr, count_pattern, extract_free,
                           extraction_target, kpartite_count_check,
                           kpartite_instance, tight_instance,
                           zarankiewicz_oracle)


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


def test_count_small_complete_bipartite():
    assert count_pattern(complete_bipartite(2, 2), K_rr(2)) == 1
    assert count_pattern(complete_bipartite(3, 3), K_rr(2)) == 9
    assert count_pattern(complete_bipartite(2, 4), K_rr(2)) == 6


def test_count_agrees_with_brute_force():
    for seed in (8, 21, 34):
        g = random_graph(9, 0.6, RngStream(seed))
        assert count_pattern(g, K_rr(2)) == brute_count_krr2(g)


def test_count_dual_route_graph_vs_hypergraph():
    for seed in (5, 13):
        g = random_graph(12, 0.5, RngStream(seed))
        h = KUniformHypergraph(12, 2, [frozenset(e) for e in g.edges()])
        assert count_pattern(g, K_rr(2)) == count_pattern(h, K_k_rr(2, 2))


def test_count_lemma_bound_on_corpus():
    rng = RngStream(300)
    for i in range(50):
        n = 10 + rng.randrange(15)
        g = random_graph(n, 0.5, rng.derive("corpus", i))
        if g.m > 200 or g.m < 1:
            continue
        assert count_pattern(g, K_rr(2)) <= 2 * g.m ** 2


def test_count_complete_tripartite_hypergraph():
    h = KUniformHypergraph(9, 3, [frozenset((a, 3 + b, 6 + c))
                                  for a in range(3) for b in range(3)
                                  for c in range(3)])
    # one copy per choice of 2 vertices from each part
    assert count_pattern(h, K_k_rr(3, 2)) == 27


def test_count_guard_names_estimate():
    with pytest.raises(GuardError, match=r"2\*m\^r"):
        count_pattern(complete_graph(300), K_rr(2))
    big = KUniformHypergraph(30, 3, [frozenset(e) for e in
                                     itertools.combinations(range(30), 3)])
    with pytest.raises(GuardError, match=r"\(k!\)\^r"):
        count_pattern(big, K_k_rr(3, 3))
    with pytest.raises(GuardError):
        count_pattern(complete_graph(4), K_k_rr(3, 2))  # arity mismatch


def test_extraction_target_arithmetic():
    assert extraction_target(9, K_rr(2)) == 2   # ceil(9^(2/3)/4)
    assert extraction_target(64, K_rr(2)) == 4  # 16/4 exactly
    assert extraction_target(100, K_rr(2)) == 6
    assert extraction_target(27, K_k_rr(3, 2)) == 2  # q=7, ceil(27^(6/7)/12)


def test_extract_single_edge_short_circuit():
    g = Graph(2, [(0, 1)])
    res = extract_free(g, K_rr(2), RngStream(1))
    assert res.subgraph is g
    assert res.trials_used == 0 and res.target_size == 1


def test_extract_pattern_free_input_returned_unchanged():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # a path has no K_{2,2}
    res = extract_free(g, K_rr(2), RngStream(2))
    assert res.subgraph is g and res.trials_used == 0


def test_extract_k33():
    res = extract_free(complete_bipartite(3, 3), K_rr(2), RngStream(3))
    assert res.target_size == 2
    assert res.subgraph.m >= 2
    assert count_pattern(res.subgraph, K_rr(2)) == 0
    assert res.trials_used >= 1


def test_extract_keeps_the_host_part_layout():
    host = complete_bipartite(3, 4).transpose()  # V1 now sits at the high ids
    res = extract_free(host, K_rr(2), RngStream(3))
    assert (res.subgraph.v1, res.subgraph.v2) == (host.v1, host.v2)
    assert count_pattern(res.subgraph, K_rr(2)) == 0


def test_extract_random_graphs():
    rng = RngStream(40)
    for seed in range(5):
        g = random_graph(40 + 4 * seed, 0.5, rng.derive("g", seed))
        res = extract_free(g, K_rr(2), rng.derive("x", seed))
        assert res.subgraph.m >= res.target_size == extraction_target(g.m, K_rr(2))
        assert count_pattern(res.subgraph, K_rr(2)) == 0
        # subgraph relation
        for u in range(g.n):
            assert res.subgraph.adj[u] & ~g.adj[u] == 0


def test_extract_hypergraph():
    h = KUniformHypergraph(9, 3, [frozenset((a, 3 + b, 6 + c))
                                  for a in range(3) for b in range(3)
                                  for c in range(3)])
    res = extract_free(h, K_k_rr(3, 2), RngStream(6))
    assert res.subgraph.m >= res.target_size == 2
    assert count_pattern(res.subgraph, K_k_rr(3, 2)) == 0
    assert res.subgraph.edges <= h.edges


def test_extract_retry_cap_reports_best():
    with pytest.raises(RetryError) as ei:
        extract_free(complete_bipartite(3, 3), K_rr(2), RngStream(3),
                     retry_cap=0)
    assert ei.value.stage == "extract_free"
    assert ei.value.best["target"] == 2


def test_tight_instance():
    inst = tight_instance(2, 2, 64)
    assert (inst.u_size, inst.v_size) == (4, 16)
    assert inst.graph.m == 64
    assert inst.kst_bound() == 32
    with pytest.raises(GuardError):
        tight_instance(2, 2, 65)
    with pytest.raises(GuardError):
        tight_instance(3, 2, 16)  # s < r


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
    z = zarankiewicz_oracle(complete_bipartite(1, 8), r=2, s=2)
    assert z.exact and z.size == 8


def test_zarankiewicz_r_not_equal_s_brute_force():
    z = zarankiewicz_oracle(complete_bipartite(3, 5), r=2, s=3)
    best = 0
    pairs = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(3), 2)]
    for rows in itertools.product(range(8), repeat=5):
        if any(sum(1 for r_ in rows if r_ & p == p) >= 3 for p in pairs):
            continue
        if sum(1 for r_ in rows if r_ == 7) >= 2:
            continue
        best = max(best, sum(r_.bit_count() for r_ in rows))
    assert z.exact and z.size == best == 10


def test_zarankiewicz_relabel_invariance():
    rng = RngStream(99)
    edges = [(u, 4 + v) for u in range(4) for v in range(6)
             if rng.random() < 0.7]
    base = zarankiewicz_oracle(BipartiteGraph(4, 6, edges), r=2, s=2)
    pu, pv = [2, 0, 3, 1], [5, 2, 0, 4, 1, 3]
    relabeled = [(pu[u], 4 + pv[v - 4]) for u, v in edges]
    redo = zarankiewicz_oracle(BipartiteGraph(4, 6, relabeled), r=2, s=2)
    assert base.exact and redo.exact and base.size == redo.size


def test_zarankiewicz_transposed_host_matches_twin():
    # |V1| > |V2| sends the host through transpose(), whose U sits at the
    # high ids; the answer must equal the twin with U laid out first
    rng = RngStream(5)
    edges = [(u, 6 + v) for u in range(6) for v in range(4)
             if rng.random() < 0.6]
    wide = BipartiteGraph(6, 4, edges)
    twin = BipartiteGraph(4, 6, [(v - 6, 4 + u) for u, v in edges])
    for r, s in [(2, 2), (2, 3)]:
        a = zarankiewicz_oracle(wide, r=r, s=s)
        b = zarankiewicz_oracle(twin, r=r, s=s)
        assert (a.size, a.exact, a.rows) == (b.size, b.exact, b.rows)
        assert a.exact and any(a.rows)


def test_zarankiewicz_budget_bracket():
    z = zarankiewicz_oracle(tight_instance(2, 2, 64), budget=10)
    assert not z.exact
    assert z.size <= z.upper == 22


def test_zarankiewicz_guards():
    with pytest.raises(GuardError):
        zarankiewicz_oracle(complete_bipartite(6, 10), r=2, s=2)  # |U| > 5
    with pytest.raises(GuardError):
        zarankiewicz_oracle(complete_bipartite(4, 21), r=2, s=2)  # |V| > 20
    with pytest.raises(GuardError):
        zarankiewicz_oracle(complete_bipartite(2, 3))  # missing r, s


def test_kpartite_instance_shapes():
    inst = kpartite_instance(2, 2, 2)
    assert [len(p) for p in inst.parts] == [2, 4]
    assert inst.hypergraph.m == 8
    inst3 = kpartite_instance(3, 2, 2)
    assert [len(p) for p in inst3.parts] == [2, 4, 16]
    assert inst3.hypergraph.m == 128  # n^q with q = 7


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


def test_kpartite_check_validation():
    inst = kpartite_instance(2, 2, 2)
    with pytest.raises(GuardError):
        kpartite_count_check(inst.hypergraph, [inst.parts[0]], 2)
    with pytest.raises(GuardError):
        kpartite_count_check(inst.hypergraph,
                             [inst.parts[0][:1], (1,) + inst.parts[1]], 2)
    bad = KUniformHypergraph(6, 2, [frozenset((0, 1))])
    with pytest.raises(GuardError):
        # parts of sizes 2 and 4, but the edge stays inside part one
        kpartite_count_check(bad, [(0, 1), (2, 3, 4, 5)], 2)
