"""Tests for progression-free sets, matching decompositions, and arrowing."""

import dataclasses
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from exlab import rsgraph
from exlab.core import (BipartiteGraph, Failure, Graph, GuardError, RngStream,
                        complete_graph)
from exlab.rsgraph import (
    ApFreeSet,
    ArrowInstance,
    FalsifyingColoring,
    RsDecomposition,
    arrow_check,
    behrend_set,
    bipartite_double,
    find_three_ap,
    greedy_decompose,
    rs_from_behrend,
    verify_falsifying,
    verify_rs,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def brute_max_ap_free(N):
    """Largest 3-AP-free subset of {1..N} by exhaustive descent."""
    universe = list(range(1, N + 1))
    for size in range(N, 0, -1):
        for cand in combinations(universe, size):
            have = set(cand)
            ok = True
            for i in range(size):
                for j in range(i + 1, size):
                    x, z = cand[i], cand[j]
                    if (x + z) % 2 == 0 and (x + z) // 2 in have:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return size
    return 0


def test_find_three_ap():
    assert find_three_ap(()) is None
    assert find_three_ap((7,)) is None
    assert find_three_ap((1, 2, 4, 5)) is None
    assert find_three_ap((1, 2, 3)) == (1, 2, 3)
    assert find_three_ap((2, 6, 10)) == (2, 6, 10)
    # unsorted input is handled
    assert find_three_ap((10, 2, 6)) == (2, 6, 10)


def test_behrend_tiny():
    assert behrend_set(1).elements == (1,)
    assert behrend_set(2).elements == (1, 2)
    assert behrend_set(3).elements == (1, 2)


def test_behrend_small_frozen():
    ap = behrend_set(14)
    assert ap.elements == (2, 4, 10)
    assert ap.stats["d"] == 2 and ap.stats["j"] == 3 and ap.stats["shell"] == 1
    assert behrend_set(41).elements == (5, 11, 13, 29, 31, 37)
    ap400 = behrend_set(400)
    assert len(ap400.elements) == 20
    assert ap400.elements[0] == 14 and ap400.elements[-1] == 352


def test_behrend_oracle_ceiling():
    # the exhaustive maximum over {1..14} is 8; the construction output is
    # a smaller set but must itself be progression-free
    assert brute_max_ap_free(14) == 8
    assert find_three_ap((1, 2, 4, 5, 10, 11, 13, 14)) is None
    assert find_three_ap(behrend_set(14).elements) is None


def test_behrend_outputs_verified():
    for N in (5, 10, 40, 100, 1000, 10 ** 4):
        ap = behrend_set(N)
        assert ap.N == N
        assert all(1 <= x <= N for x in ap.elements)
        assert ap.elements == tuple(sorted(set(ap.elements)))
        assert find_three_ap(ap.elements) is None
        assert ap.stats["check"] == "exact"


def test_verify_ap_free_rejects_malformed_elements():
    for elements in ((3, 1, 5), (1, 1, 5)):
        with pytest.raises(ValueError, match="strictly increase"):
            rsgraph.verify_ap_free(ApFreeSet(10, elements))


def test_behrend_large_frozen():
    ap = behrend_set(10 ** 5)
    assert len(ap.elements) == 462
    assert ap.elements[-1] == 88210
    assert ap.stats == {"d": 2, "j": 11, "shell": 5, "check": "exact"}
    # the exact oracle certifies past 10^5 as well
    big = behrend_set(2 * 10 ** 5)
    assert big.stats["check"] == "exact"
    assert find_three_ap(big.elements) is None


def test_behrend_deterministic():
    assert behrend_set(5000).elements == behrend_set(5000).elements


def test_behrend_guards():
    with pytest.raises(GuardError):
        behrend_set(0)
    with pytest.raises(GuardError):
        behrend_set(10 ** 6 + 1)


def test_verify_rs_accepts_construction():
    dec = rs_from_behrend(15)
    assert verify_rs(dec) == (True, None)


def test_verify_rs_negatives():
    p5 = path_graph(5)
    bad = RsDecomposition(graph=p5, matchings=(((0, 1), (3, 4)), ((1, 2),)),
                          spanning=False)
    assert verify_rs(bad) == (False, ("size", 1))
    bad = RsDecomposition(graph=p5, matchings=(((0, 2),),), spanning=False)
    assert verify_rs(bad) == (False, ("foreign_edge", 0, (0, 2)))
    bad = RsDecomposition(graph=p5, matchings=(((0, 1),), ((0, 1),)),
                          spanning=False)
    assert verify_rs(bad) == (False, ("overlap", 0, 1))
    bad = RsDecomposition(graph=p5, matchings=(((0, 1), (1, 2)),),
                          spanning=False)
    assert verify_rs(bad) == (False, ("not_induced", 0, (1, 1)))
    p4 = path_graph(4)
    bad = RsDecomposition(graph=p4, matchings=(((0, 1), (2, 3)),),
                          spanning=False)
    assert verify_rs(bad) == (False, ("not_induced", 0, (1, 2)))
    bad = RsDecomposition(graph=p5, matchings=(((0, 1), (3, 4)),),
                          spanning=True)
    assert verify_rs(bad) == (False, ("not_spanning", 2))


def test_verify_rs_malformed():
    p5 = path_graph(5)
    with pytest.raises(ValueError):
        verify_rs(RsDecomposition(graph=p5, matchings=(), spanning=False))
    with pytest.raises(ValueError):
        verify_rs(RsDecomposition(graph=p5, matchings=((),), spanning=False))
    with pytest.raises(ValueError):
        verify_rs(RsDecomposition(graph=p5, matchings=(((1, 0),),),
                                  spanning=False))
    with pytest.raises(ValueError):
        verify_rs(RsDecomposition(graph=p5, matchings=(((0, 7),),),
                                  spanning=False))
    with pytest.raises(ValueError):
        verify_rs(RsDecomposition(graph=p5,
                                  matchings=(((0, 1), (0, 1)),),
                                  spanning=False))


def pairwise_verify_rs(dec):
    """verify_rs's checks on well-formed input with the inducedness test as
    a scan over every pair of edges in each matching, kept as the oracle of
    the row-mask test."""
    g = dec.graph
    mats = dec.matchings
    for i, mt in enumerate(mats):
        if len(mt) != len(mats[0]):
            return False, ("size", i)
    owner = {}
    for i, mt in enumerate(mats):
        for e in mt:
            if not g.has_edge(*e):
                return False, ("foreign_edge", i, e)
            if e in owner:
                return False, ("overlap", owner[e], i)
            owner[e] = i
    for i, mt in enumerate(mats):
        for a in range(len(mt)):
            for b in range(a + 1, len(mt)):
                e, f = mt[a], mt[b]
                shared = set(e) & set(f)
                if shared:
                    w = min(shared)
                    return False, ("not_induced", i, (w, w))
                for x in e:
                    for y in f:
                        if g.has_edge(x, y):
                            return False, ("not_induced", i, (x, y))
    if dec.spanning and g.m != len(owner):
        return False, ("not_spanning", g.m - len(owner))
    return True, None


def planted_defects(dec):
    """Defects in the first, a middle and the last matching: for each pair
    of edges (u1, v1), (u2, v2), the host edge (u1, v2) or (u2, v1) alone,
    and the host edge (u1, v2) replacing (u2, v2) in the matching, which
    then shares u1 and owns an edge no other matching owns."""
    g = dec.graph
    mats = list(dec.matchings)

    def with_edge(x, y):
        return BipartiteGraph(g.n1, g.n2, [*g.edges(), (x, y)])

    for i in sorted({0, len(mats) // 2, len(mats) - 1}):
        mt = mats[i]
        for a, b in combinations(range(len(mt)), 2):
            (u1, v1), (u2, v2) = mt[a], mt[b]
            yield dataclasses.replace(dec, graph=with_edge(u1, v2))
            yield dataclasses.replace(dec, graph=with_edge(u2, v1))
            moved = mt[:b] + ((u1, v2),) + mt[b + 1:]
            yield dataclasses.replace(
                dec, graph=with_edge(u1, v2),
                matchings=tuple(mats[:i] + [moved] + mats[i + 1:]))


@pytest.mark.parametrize("args", [(100,), (1000, 4)],
                         ids=["N100", "N1000-chunk4"])
def test_verify_rs_mask_test_matches_pairwise_scan(args):
    dec = rs_from_behrend(*args)
    assert pairwise_verify_rs(dec) == verify_rs(dec) == (True, None)
    defects = list(planted_defects(dec))
    assert len(defects) == 3 * 3 * (dec.n * (dec.n - 1) // 2)
    for bad in defects:
        ok, reason = verify_rs(bad)
        assert not ok and reason[0] == "not_induced"
        assert (ok, reason) == pairwise_verify_rs(bad)


def test_rs_from_behrend_minimal():
    dec = rs_from_behrend(15)
    assert dec.matchings == (((0, 9), (1, 8)),
                             ((1, 10), (2, 9)),
                             ((2, 11), (3, 10)))
    assert (dec.n, dec.t) == (2, 3)
    assert dec.spanning
    assert dec.graph.n1 == 5 and dec.graph.n2 == 10 and dec.graph.m == 6
    assert dec.stats["s_max"] == 2 and dec.stats["max_element"] == 2


def test_rs_from_behrend_full_run():
    dec = rs_from_behrend(3000)
    assert (dec.n, dec.t) == (20, 648)
    assert dec.graph.m == 20 * 648
    assert dec.graph.n <= 3000
    assert dec.t >= 3000 // 5
    assert dec.spanning
    assert verify_rs(dec) == (True, None)


def test_rs_chunk_exact_split():
    dec = rs_from_behrend(309, chunk=2)
    assert (dec.n, dec.t) == (2, 198)
    assert dec.spanning
    assert dec.stats["pieces"] == 3 and dec.stats["dropped_per_matching"] == 0
    full = rs_from_behrend(309)
    assert (full.n, full.t) == (6, 66)
    assert dec.t == full.t * 3


def test_rs_chunk_with_remainder():
    dec = rs_from_behrend(309, chunk=4)
    assert (dec.n, dec.t) == (4, 66)
    assert not dec.spanning
    assert dec.stats["dropped_per_matching"] == 2
    # dropped edges stay in the graph, so the union is a strict subset
    union = {e for mt in dec.matchings for e in mt}
    assert len(union) == 4 * 66 < dec.graph.m


def test_rs_guards():
    with pytest.raises(GuardError):
        rs_from_behrend(14)
    with pytest.raises(GuardError):
        rs_from_behrend(2 * 10 ** 4 + 3)
    with pytest.raises(GuardError):
        rs_from_behrend(309, chunk=0)
    with pytest.raises(GuardError):
        rs_from_behrend(309, chunk=7)


def test_double_single_edge():
    g = complete_graph(2)
    dec = RsDecomposition(graph=g, matchings=(((0, 1),),), spanning=True)
    dbl = bipartite_double(g, dec)
    assert dbl.matchings == (((0, 3), (1, 2)),)
    assert dbl.graph.n1 == 2 and dbl.graph.n2 == 2 and dbl.graph.m == 2
    assert (dbl.n, dbl.t) == (2, 1)
    assert dbl.spanning
    assert verify_rs(dbl) == (True, None)


def test_double_scales_and_preserves():
    dec = rs_from_behrend(15)
    dbl = bipartite_double(dec.graph, dec)
    assert dbl.graph.n == 2 * dec.graph.n
    assert dbl.n == 2 * dec.n
    assert dbl.t == dec.t
    assert dbl.graph.m == 2 * dec.graph.m
    assert verify_rs(dbl) == (True, None)
    # a non-spanning input stays non-spanning
    part = rs_from_behrend(309, chunk=4)
    dpart = bipartite_double(part.graph, part)
    assert not dpart.spanning
    assert verify_rs(dpart) == (True, None)


def test_double_guards():
    dec = rs_from_behrend(15)
    other = complete_graph(4)
    with pytest.raises(GuardError):
        bipartite_double(other, dec)
    bad = RsDecomposition(graph=other, matchings=(((0, 1), (2, 3)),),
                          spanning=False)
    with pytest.raises(GuardError):
        bipartite_double(other, bad)


def test_greedy_perfect_matching_host():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    dec = greedy_decompose(g, 3)
    assert isinstance(dec, RsDecomposition)
    assert dec.matchings == (((0, 1), (2, 3), (4, 5)),)
    assert dec.spanning
    assert dec.stats["extracted"] == 1


def test_greedy_k4_falsifying():
    out = greedy_decompose(complete_graph(4), 2)
    assert isinstance(out, FalsifyingColoring)
    assert out.red == ()
    assert (out.t, out.n) == (1, 2)
    assert out.stats["extracted"] == 0
    assert verify_falsifying(complete_graph(4), out.red, out.t, out.n) == \
        (True, None)


def test_greedy_path_host():
    dec = greedy_decompose(path_graph(5), 2)
    assert isinstance(dec, RsDecomposition)
    assert dec.matchings == (((0, 1), (3, 4)),)
    # the decomposition graph is the extracted subgraph, spanned exactly
    assert dec.graph.m == 2
    assert verify_rs(dec) == (True, None)


def test_greedy_recovers_construction():
    dec = rs_from_behrend(15)
    out = greedy_decompose(dec.graph, dec.n)
    assert isinstance(out, RsDecomposition)
    assert out.t >= dec.t
    assert out.matchings == dec.matchings


def test_greedy_threshold_falsifies():
    dec = rs_from_behrend(15)
    out = greedy_decompose(dec.graph, 2, t_target=4)
    assert isinstance(out, FalsifyingColoring)
    assert len(out.red) == 6
    assert out.stats["extracted"] == 3
    assert out.stats["red_max_degree"] == 2
    assert verify_falsifying(dec.graph, out.red, 4, 2) == (True, None)


def test_greedy_budget_exhaustion():
    dec = rs_from_behrend(15)
    out = greedy_decompose(dec.graph, 2, budget=3)
    assert isinstance(out, Failure)
    assert out.stage == "greedy_decompose"
    assert out.reason == "search budget exhausted"
    assert out.stats["extracted"] >= 1


def test_greedy_guards():
    g = complete_graph(4)
    with pytest.raises(GuardError):
        greedy_decompose(g, 0)
    with pytest.raises(GuardError):
        greedy_decompose(g, 2, t_target=0)
    big = rs_from_behrend(300).graph
    with pytest.raises(GuardError):
        greedy_decompose(big, 3)
    # with an explicit budget the large host is allowed
    out = greedy_decompose(big, 3, budget=10 ** 5)
    assert isinstance(out, (RsDecomposition, Failure))


def test_greedy_deterministic():
    dec = rs_from_behrend(309, chunk=2)
    a = greedy_decompose(dec.graph, 2, budget=10 ** 6)
    b = greedy_decompose(dec.graph, 2, budget=10 ** 6)
    assert isinstance(a, RsDecomposition)
    assert a.matchings == b.matchings


def test_verify_falsifying_negatives():
    k4 = complete_graph(4)
    assert verify_falsifying(k4, ((0, 1),), 1, 2) == (False, ("red_star", 0))
    p5 = path_graph(5)
    assert verify_falsifying(p5, (), 1, 2) == \
        (False, ("blue_matching", ((0, 1), (3, 4))))
    with pytest.raises(ValueError):
        verify_falsifying(k4, ((1, 0),), 1, 2)
    with pytest.raises(ValueError):
        verify_falsifying(k4, ((0, 1), (0, 1)), 1, 2)


def test_arrow_trivial_hosts():
    out = arrow_check(complete_graph(2), 1, 1)
    assert out.verdict == "arrows"
    assert out.stats["colorings_scanned"] == 2
    out = arrow_check(Graph(3, [(0, 1), (0, 2)]), 1, 1)
    assert out.verdict == "arrows"
    assert out.stats["colorings_scanned"] == 4


def test_arrow_falsified_star_host():
    # K_{1,3} cannot yield red degree 4; the all-red coloring falsifies
    out = arrow_check(Graph(4, [(0, 1), (0, 2), (0, 3)]), 4, 1)
    assert out.verdict == "falsified"
    assert out.red == ((0, 1), (0, 2), (0, 3))
    assert out.stats["colorings_scanned"] == 8


def test_arrow_falsified_k4():
    # K_4 has no induced matching of size 2, so the all-blue coloring
    # falsifies immediately
    out = arrow_check(complete_graph(4), 1, 2)
    assert out.verdict == "falsified"
    assert out.red == ()
    assert out.stats["colorings_scanned"] == 1


def test_arrow_cycle_host():
    c6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    out = arrow_check(c6, 1, 2)
    assert out.verdict == "arrows"
    assert out.stats["colorings_scanned"] == 64


def test_arrow_deterministic():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert arrow_check(g, 4, 1).red == arrow_check(g, 4, 1).red


def test_arrow_antimonotone():
    # arrowing survives shrinking either target: checked over every subgraph
    # of K_4 with at most 5 edges and every t, n in {1, 2}
    k4_edges = list(combinations(range(4), 2))
    for picks in range(1 << 6):
        if picks.bit_count() > 5:
            continue
        edges = [k4_edges[i] for i in range(6) if picks >> i & 1]
        g = Graph(4, edges)
        grid = {(t, n): arrow_check(g, t, n).verdict == "arrows"
                for t in (1, 2) for n in (1, 2)}
        assert not grid[(2, 1)] or grid[(1, 1)]
        assert not grid[(1, 2)] or grid[(1, 1)]
        assert not grid[(2, 2)] or (grid[(1, 2)] and grid[(2, 1)])


def test_arrow_guards():
    g = complete_graph(8)  # 28 edges
    with pytest.raises(GuardError):
        arrow_check(g, 1, 1)
    with pytest.raises(GuardError):
        arrow_check(complete_graph(2), 0, 1)
    with pytest.raises(GuardError):
        arrow_check(complete_graph(2), 1, 1, mode="heuristic")


def test_arrow_theorem_mode():
    dec = rs_from_behrend(300)
    dbl = bipartite_double(dec.graph, dec)
    out = arrow_check(dbl.graph, 1, 3, mode="theorem", decomposition=dbl)
    assert out.verdict == "arrows"
    rsgraph.behrend_arrow_guard(300, 1, 3)
    assert out.stats["c"] == 2
    assert out.stats["s"] == 6 and out.stats["t_count"] == 90
    assert out.stats["red_degree_bound"] == 1
    assert out.stats["blue_chunk_bound"] == 3


def test_arrow_theorem_hypothesis_failures():
    dec = rs_from_behrend(300)
    dbl = bipartite_double(dec.graph, dec)
    for t, n, unmet in ((2, 3, "red_average_degree"), (1, 4, "c_at_least_2")):
        with pytest.raises(GuardError, match=unmet):
            arrow_check(dbl.graph, t, n, mode="theorem", decomposition=dbl)
        # the guard finds the same without building the double
        with pytest.raises(GuardError, match=unmet):
            rsgraph.behrend_arrow_guard(300, t, n)
    with pytest.raises(GuardError):
        arrow_check(dbl.graph, 1, 3, mode="theorem")
    # non-spanning decompositions are rejected
    part = rs_from_behrend(309, chunk=4)
    with pytest.raises(GuardError, match="spanning"):
        arrow_check(part.graph, 1, 1, mode="theorem", decomposition=part)
    # the host must be bipartite
    host = path_graph(5)
    dec2 = greedy_decompose(host, 2)
    with pytest.raises(GuardError, match="bipartite"):
        arrow_check(dec2.graph, 1, 1, mode="theorem", decomposition=dec2)


def test_chunk_preserves_invariants_corpus():
    rng = RngStream(41).derive("chunk-corpus")
    for _ in range(10):
        N = 60 + rng.randrange(400)
        base = rs_from_behrend(N)
        chunk = 1 + rng.randrange(base.n)
        dec = rs_from_behrend(N, chunk=chunk)
        assert verify_rs(dec) == (True, None)
        dbl = bipartite_double(dec.graph, dec)
        assert verify_rs(dbl) == (True, None)
        assert dbl.n == 2 * dec.n and dbl.t == dec.t


_REJECTING_VERIFIER = """
import sys
import exlab.rsgraph as rs
rs.verify_rs = lambda dec: (False, ("patched",))
try:
    rs.rs_from_behrend(15)
except AssertionError as exc:
    print(sys.flags.optimize, "raised", exc)
else:
    print(sys.flags.optimize, "returned")
"""


def test_postconditions_survive_optimize_flag():
    # python -O strips assert statements; the re-verification must not be one
    src = str(Path(rsgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", _REJECTING_VERIFIER],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=60)
    assert out.stdout.split()[:2] == ["1", "raised"], out.stdout + out.stderr
    assert "patched" in out.stdout
