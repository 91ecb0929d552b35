"""Tests for down-closed hypergraphs, resampling embeddings, and the pipeline."""

import functools
import itertools
import math
import operator
import time
import warnings
from fractions import Fraction

import pytest

from exlab import expcli, lll_embed
from exlab.core import (BipartiteGraph, EdgeColoring, Failure, Graph,
                        GuardError, RngStream, complete_bipartite,
                        complete_graph, hypercube, random_coloring,
                        try_bipartition)
from exlab.lll_embed import (MAX_ENUMERATION, AuxPair,
                             DownClosedHypergraph, DrcParams, DrcResult,
                             EmbeddingResult, TargetHypergraph,
                             _rank_combination,
                             _unrank_combination, bip_ramsey_pipeline,
                             build_aux_pair, drc_subset,
                             drc_subset_guard,
                             neighborhood_hypergraph, random_dense_dch,
                             random_dense_dch_guard, resample_embed)


def from_top_edges(N: int, k: int, top_edges) -> DownClosedHypergraph:
    if math.comb(N, k) > MAX_ENUMERATION:
        raise GuardError("explicit top-edge construction is desk-scale only")
    keep = {tuple(sorted(e)) for e in top_edges}
    return DownClosedHypergraph(N, k, (
        r for r, t in enumerate(itertools.combinations(range(N), k))
        if t not in keep))


def from_deleted(N: int, k: int, deleted) -> DownClosedHypergraph:
    """The host whose deleted top edges are these k-sets."""
    return DownClosedHypergraph(N, k, (
        _rank_combination(sorted(e), N, k) for e in deleted))


def iter_top_edges(dch):
    if math.comb(dch.N, dch.k) > MAX_ENUMERATION:
        raise GuardError("top-edge enumeration is desk-scale only")
    for r, t in enumerate(itertools.combinations(range(dch.N), dch.k)):
        if r not in dch.deleted_ranks:
            yield t


def non_member_count(dch, level: int) -> int:
    """Exact number of non-member level-sets by enumeration."""
    if math.comb(dch.N, level) > MAX_ENUMERATION:
        raise GuardError("level enumeration is desk-scale only")
    return sum(1 for t in itertools.combinations(range(dch.N), level)
               if not dch.member(t))


def brute_member(dch, S):
    """Reference membership: containment in some explicitly listed top edge."""
    ss = set(S)
    return any(ss <= set(t) for t in iter_top_edges(dch))


C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def unrank_linear(rank, n, k):
    """Reference unranking: step through the lex order one element at a time."""
    out = []
    c = 0
    for j in range(k, 0, -1):
        cnt = math.comb(n - c - 1, j - 1)
        while rank >= cnt:
            rank -= cnt
            c += 1
            cnt = cnt * (n - c - j + 1) // (n - c)
        out.append(c)
        c += 1
    return tuple(out)


def test_unrank_matches_lex_order():
    for n in range(1, 10):
        for k in range(1, n + 1):  # includes k = 1 and k = n
            got = [_unrank_combination(r, n, k)
                   for r in range(math.comb(n, k))]
            assert got == [unrank_linear(r, n, k)
                           for r in range(math.comb(n, k))], (n, k)
            assert got == list(itertools.combinations(range(n), k))
            assert [_rank_combination(t, n, k) for t in got] == \
                list(range(math.comb(n, k)))


def test_unrank_matches_linear_reference_at_sampled_ranks():
    total = math.comb(128, 3)
    stream = RngStream(31)
    ranks = [0, 1, total - 2, total - 1] + [stream.randrange(total)
                                            for _ in range(2000)]
    for r in ranks:
        assert _unrank_combination(r, 128, 3) == unrank_linear(r, 128, 3)
        assert _rank_combination(unrank_linear(r, 128, 3), 128, 3) == r
    assert _unrank_combination(0, 128, 3) == (0, 1, 2)
    assert _unrank_combination(total - 1, 128, 3) == (125, 126, 127)
    # k = 1 over a large range and k = n - 1 need no large tables
    assert _unrank_combination(12345, 10 ** 7, 1) == (12345,)
    assert _unrank_combination(1, 5000, 4999) == tuple(range(4998)) + (4999,)


def test_dch_construction_and_counts():
    kept = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]
    d = from_top_edges(6, 3, kept)
    assert len(d.deleted_ranks) == math.comb(6, 3) - 3
    assert d.member((2, 1, 0)) and not d.member((0, 1, 3))
    assert sorted(iter_top_edges(d)) == kept
    d = DownClosedHypergraph(6, 3, [0, 19, 7])
    assert d.deleted == {(0, 1, 2), (3, 4, 5), _unrank_combination(7, 6, 3)}
    assert d.deleted_ranks == {0, 7, 19}
    assert from_deleted(6, 3, d.deleted).deleted_ranks == {0, 7, 19}
    assert not DownClosedHypergraph(6, 3).deleted_ranks
    # out of range, or not an int: a float, a str, a bool, None, also
    # beside an equal int
    for ranks in ([-1], [0, 20], [10 ** 30], [0.5, 3], [3.0], ["a"], [2, "a"],
                  [True], [None], [1, True], [3, 3.0]):
        with pytest.raises(ValueError):
            DownClosedHypergraph(6, 3, ranks)
    for N, k in ((3, 4), (3, 0)):
        with pytest.raises(GuardError):
            DownClosedHypergraph(N, k)


def test_random_host_round_trips_through_the_checked_constructor():
    """random_dense_dch builds its host unchecked, from drawn ranks; the
    checked constructor, given those ranks, rebuilds the same host."""
    for N, k, delta, seed in ((128, 3, "9/1000", 1), (10, 4, 0.35, 9),
                              (9, 4, Fraction(4, 5), 4), (40, 2, 0.5, 2),
                              (7, 7, 0, 3), (30, 1, Fraction(1, 3), 5)):
        host = random_dense_dch(N, k, delta, RngStream(seed))
        rebuilt = DownClosedHypergraph(N, k, host.deleted_ranks)
        assert (rebuilt.N, rebuilt.k) == (host.N, host.k) == (N, k)
        assert type(host.deleted_ranks) is frozenset
        assert rebuilt.deleted_ranks == host.deleted_ranks
        assert rebuilt.missing_fraction() == host.missing_fraction()
        draw = RngStream(seed).derive("sets")
        for level in range(1, k + 1):
            for _ in range(30):
                S = draw.sample(range(N), level)
                assert rebuilt.member(S) == host.member(S), (N, k, S)
        assert expcli.digest(rebuilt) == expcli.digest(host)


def test_dch_membership_matches_bruteforce():
    d = random_dense_dch(10, 4, 0.35, RngStream(9))
    assert len(d.deleted_ranks) == int(Fraction(0.35) * math.comb(10, 4))
    # hosts with non-members below the top level
    sparse = random_dense_dch(9, 4, Fraction(4, 5), RngStream(4))
    few = from_top_edges(7, 3, [(0, 1, 2), (1, 2, 3), (2, 4, 6)])
    assert non_member_count(sparse, 3) > 0 and non_member_count(few, 2) > 0
    for host in (d, sparse, few):
        for level in range(1, host.k + 1):
            for S in itertools.combinations(range(host.N), level):
                assert host.member(S) == brute_member(host, S)


def test_dch_membership_monotone_exhaustive():
    d = random_dense_dch(10, 4, 0.35, RngStream(9))
    for level in range(2, 5):
        for S in itertools.combinations(range(10), level):
            if d.member(S):
                for T in itertools.combinations(S, level - 1):
                    assert d.member(T)


def test_dch_level_nonmember_bound():
    # non-member l-sets number at most (missing fraction) * C(N,l)
    d = random_dense_dch(12, 4, 0.3, RngStream(11))
    delta = d.missing_fraction()
    for level in (1, 2, 3):
        assert non_member_count(d, level) <= delta * math.comb(12, level)


def test_random_dense_dch_frozen_counts():
    d = random_dense_dch(20, 3, 0.01, RngStream(5))
    assert len(d.deleted_ranks) == 11
    assert math.comb(20, 3) - len(d.deleted_ranks) == 1129
    full = random_dense_dch(20, 3, 0, RngStream(5))
    assert len(full.deleted_ranks) == 0
    assert all(full.member(S) for S in itertools.combinations(range(20), 2))
    again = random_dense_dch(20, 3, 0.01, RngStream(5))
    assert again.deleted == d.deleted


def _q3_bipartite():
    q3 = hypercube(3)
    side1, side2 = try_bipartition(q3)
    pos = {v: i for i, v in enumerate(side1 + side2)}
    return BipartiteGraph(4, 4, [tuple(sorted((pos[u], pos[v])))
                                 for u, v in q3.edges()])


def _random_bipartite(half, p, seed):
    rng = RngStream(seed)
    return BipartiteGraph(half, half, [(u, half + v) for u in range(half)
                                       for v in range(half)
                                       if rng.random() < p])


# SHA-256 of expcli.canonical for hosts built every public way, pinned while
# the deleted top edges were still stored as tuples
DCH_DIGESTS = {
    "empty":
        "04cf2f6f365739d44d1654e81184adb23a7371166634c1e430aa58e5460206c2",
    "explicit":
        "cac6734dff36b1ac7ff99fbf7661cdab0a66e3eebcf9ce055531ed3c04134121",
    "top_edges":
        "23a3dd1bb0f725834f894c95758763ee0661e5587bf216c982ff31610eb9f0df",
    "random_20_3":
        "01ef42db5101847ca2b6885b6282192e732f33d2346a181e5709c0c97e7f4421",
    "random_10_4":
        "5ec7b1a13f6b8adc68984ec110f1cf083af3d8413d41142bfa40b74880bfe1e0",
    "gate6_host":
        "31d0216a227aaeaff1db5dafd461aca30bc1dcdcc15d06415d081433044986c9",
    "aux_c6":
        "45518bd7218a699fae1faeac184a00e88d69f6a208a66ee21585fedabc5c261f",
    "aux_q3_random":
        "c054ebf2eeaa089d41c111bdf090fd50c42fd7618d8515ec80bad41d420be7a4",
}


def test_dch_canonical_digests_are_pinned():
    c6 = BipartiteGraph(3, 3, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4),
                               (2, 5)])
    h = BipartiteGraph(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    hosts = {
        "empty": DownClosedHypergraph(8, 3),
        "explicit": from_deleted(6, 3, [(2, 1, 0), (5, 3, 4), [0, 2, 5]]),
        "top_edges": from_top_edges(6, 3, [(0, 1, 2), (1, 2, 3),
                                           (2, 3, 4)]),
        "random_20_3": random_dense_dch(20, 3, Fraction(1, 100),
                                        RngStream(5)),
        "random_10_4": random_dense_dch(10, 4, Fraction(35, 100),
                                        RngStream(9)),
        "gate6_host": random_dense_dch(128, 3, Fraction(9, 1000),
                                       RngStream(1000)),
        "aux_c6": build_aux_pair(h, (0, 1, 2), c6, 2).dch,
        "aux_q3_random": build_aux_pair(_q3_bipartite(), range(24),
                                        _random_bipartite(24, 0.5, 77),
                                        3).dch,
    }
    assert len(hosts["aux_q3_random"].deleted_ranks) == 876
    assert {name: expcli.digest(d) for name, d in hosts.items()} \
        == DCH_DIGESTS


def test_random_dense_dch_guards():
    rng = RngStream(0)
    with pytest.raises(GuardError):
        random_dense_dch(10, 3, 1.0, rng)
    with pytest.raises(GuardError):
        random_dense_dch(10, 3, -0.1, rng)
    with pytest.raises(GuardError):
        random_dense_dch(1000, 5, 0.1, rng)


@pytest.mark.parametrize("N, k", [(844, 3), (14142, 2), (14142, 14140)])
def test_random_dense_dch_guard_flips_at_the_top_level_bound(N, k):
    # C(N, k) <= MAX_TOP_LEVEL < C(N + 1, k) at each of these
    assert random_dense_dch_guard(N, k, 0) == math.comb(N, k)
    with pytest.raises(GuardError, match="exceeds"):
        random_dense_dch_guard(N + 1, k, 0)


def test_member_validation():
    d = DownClosedHypergraph(8, 3)
    with pytest.raises(GuardError):
        d.member(())
    with pytest.raises(GuardError):
        d.member((0, 1, 2, 3))
    with pytest.raises(ValueError):
        d.member((0, 0, 1))
    with pytest.raises(ValueError):
        d.member((0, 1, 8))


def test_target_hypergraph_and_neighborhoods():
    t = TargetHypergraph(4, [(0, 1), (1, 0), (2,)])
    assert len(t.edges) == 2
    assert t.max_degree == 1 and t.max_edge_size == 2
    with pytest.raises(ValueError):
        TargetHypergraph(3, [()])
    with pytest.raises(ValueError):
        TargetHypergraph(3, [(0, 3)])
    q3 = neighborhood_hypergraph(hypercube(3))
    assert q3.n == 8 and len(q3.edges) == 8
    assert q3.max_degree == 3 and q3.max_edge_size == 3
    lonely = neighborhood_hypergraph(Graph(3, [(0, 1)]))
    assert len(lonely.edges) == 2  # the isolated vertex contributes nothing


def test_gate6_host_and_embedding_never_unrank(monkeypatch):
    def unrank(*args):
        raise AssertionError("_unrank_combination called")
    monkeypatch.setattr(lll_embed, "_unrank_combination", unrank)
    target = neighborhood_hypergraph(hypercube(3))
    rng = RngStream(1000)
    host = random_dense_dch(128, 3, Fraction(9, 1000), rng)
    assert len(host.deleted_ranks) == 3072
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = resample_embed(target, host, rng)
    assert isinstance(res, EmbeddingResult)


def test_resample_trivial_single_edge():
    host = DownClosedHypergraph(32, 2)
    target = TargetHypergraph(2, [(0, 1)])
    res = resample_embed(target, host, RngStream(1))
    assert isinstance(res, EmbeddingResult)
    u, v = res.mapping
    assert u != v and host.member((u, v))


def test_resample_q3_neighborhood_harness():
    # regime: N = 128 = 16n and missing fraction 0.009 < 2^(-1.5)/36
    target = neighborhood_hypergraph(hypercube(3))
    for seed in range(10):
        rng = RngStream(1000 + seed)
        host = random_dense_dch(128, 3, 0.009, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = resample_embed(target, host, rng)
        assert isinstance(res, EmbeddingResult)
        assert len(set(res.mapping)) == 8
        deleted = host.deleted
        for e in target.edges:
            image = tuple(sorted(res.mapping[v] for v in e))
            assert image not in deleted


def test_resample_regime_warnings():
    target = TargetHypergraph(2, [(0, 1)])
    with pytest.warns(RuntimeWarning):
        resample_embed(target, DownClosedHypergraph(8, 2), RngStream(2))
    # dense deletions: half the host is gone, far beyond the recommended delta
    deleted = [t for t in itertools.combinations(range(32), 2) if t[0] < 16]
    sparse = from_deleted(32, 2, deleted)
    with pytest.warns(RuntimeWarning):
        res = resample_embed(target, sparse, RngStream(3))
    assert isinstance(res, EmbeddingResult)


def test_resample_failures():
    big = TargetHypergraph(5, [(0, 1)])
    res = resample_embed(big, DownClosedHypergraph(4, 2), RngStream(1))
    assert isinstance(res, Failure) and res.stage == "resample_embed"
    assert res.stats == {"n": 5, "N": 4}
    empty = from_top_edges(6, 2, [])
    target = TargetHypergraph(2, [(0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = resample_embed(target, empty, RngStream(1), round_cap=3)
    assert isinstance(res, Failure)
    assert res.reason == "round cap exhausted"
    assert res.stats["rounds"] == 3 and res.stats["violated"]


def test_resample_edge_size_guard():
    target = TargetHypergraph(4, [(0, 1, 2)])
    with pytest.raises(GuardError):
        resample_embed(target, DownClosedHypergraph(64, 2), RngStream(1))


def test_drc_complete_trivial():
    params = DrcParams(Fraction(1, 2), 2, 1, 2)
    res = drc_subset(complete_bipartite(32, 32), params, RngStream(1))
    assert res.U == tuple(range(32))
    assert res.tries == 1 and res.bad_k_sets == 0


def test_drc_random_counted_clauses():
    rng = RngStream(21)
    edges = [(u, 32 + v) for u in range(32) for v in range(32)
             if rng.random() < 0.55]
    B = BipartiteGraph(32, 32, edges)
    assert B.density() == Fraction(561, 1024)
    params = DrcParams(Fraction(1, 2), 2, 1, 2)
    res = drc_subset(B, params, RngStream(2))
    # recount both clauses independently of the implementation
    assert 2 * Fraction(len(res.U)) ** 2 >= (Fraction(1, 4) * 32) ** 2
    mask2 = B.mask(2)
    bad = 0
    for u, v in itertools.combinations(res.U, 2):
        if (B.adj[u] & B.adj[v] & mask2).bit_count() < 2:
            bad += 1
    assert bad == res.bad_k_sets
    assert bad < Fraction(2 ** 3) * math.comb(len(res.U), 2)
    # k = 3: thin triples counted over itertools.combinations
    edges = [(u, 96 + v) for u in range(96) for v in range(96)
             if rng.random() < 0.55]
    B = BipartiteGraph(96, 96, edges)
    res = drc_subset(B, DrcParams(Fraction(1, 2), 3, 1, 12), RngStream(3))
    thin = sum(1 for S in itertools.combinations(res.U, 3)
               if (B.adj[S[0]] & B.adj[S[1]] & B.adj[S[2]]).bit_count() < 12)
    assert res.bad_k_sets == thin > 0


def test_drc_guards():
    params = DrcParams(Fraction(1, 2), 2, 1, 2)
    with pytest.raises(GuardError):
        drc_subset(complete_bipartite(16, 32), params, RngStream(0))
    with pytest.raises(GuardError):
        drc_subset(complete_bipartite(8, 8), params, RngStream(0))
    sparse = BipartiteGraph(32, 32, [(i, 32 + i) for i in range(32)])
    with pytest.raises(GuardError):
        drc_subset(sparse, params, RngStream(0))
    with pytest.raises(GuardError):
        DrcParams(Fraction(1, 2), 0, 1, 2)


def test_drc_guard_keeps_the_exact_floor():
    """The guard accepts exactly when N * eps^k >= max(bn, 4k), also where
    the two sides tie or differ in the last unit."""
    def exact_accepts(N, params):
        k, n, eps, b = params.k, params.n, params.eps, params.b
        return 4 * k <= N and N * eps ** k >= max(b * n, 4 * k)

    near_one = 1 - Fraction(1, 10 ** 40)
    checked = 0
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                Fraction(7, 8), Fraction(999, 1000), near_one,
                Fraction(1, 10 ** 40)):
        for k in (1, 2, 3, 5, 8, 50, 400):
            for b, n in ((1, 2), (Fraction(3, 2), 7), (5, 10 ** 6 + 3)):
                params = DrcParams(eps, k, b, n)
                edge = math.ceil(max(b * n, 4 * k) / eps ** k)
                if edge.bit_length() > 10000:  # past int-to-text in messages
                    continue
                for N in {edge - 1, edge, edge + 1, 4 * k - 1, 4 * k}:
                    try:
                        drc_subset_guard(N, params)
                        accepted = True
                    except GuardError:
                        accepted = False
                    assert accepted == exact_accepts(N, params), \
                        (N, eps, k, b, n)
                    checked += 1
    assert checked > 500
    # eps^k within 10^-20 of 1 at k = 10^20: N = 4k + 1 falls short and
    # N = 4k + 10 meets the floor, decided without writing eps^k out
    k = 10 ** 20
    with pytest.raises(GuardError):
        drc_subset_guard(4 * k + 1, DrcParams(near_one, k, 1, 2))
    drc_subset_guard(4 * k + 10, DrcParams(near_one, k, 1, 2))
    # k = 10^300 squares its bounds about 1000 times; eps^k is near e^-10,
    # so the floor 4k needs N between 22000 and 22100 times 4k
    k = 10 ** 300
    params = DrcParams(1 - Fraction(1, 10 ** 299), k, 1, 2)
    with pytest.raises(GuardError):
        drc_subset_guard(4 * k * 22000, params)
    drc_subset_guard(4 * k * 22100, params)


def test_drc_guard_rejects_a_huge_k_at_once(capsys):
    t0 = time.perf_counter()
    code = expcli.main(["embed", "--op", "drc", "--N", "40000004",
                        "--k", "10000000", "--eps", "1/3", "--dry-run"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "below eps^-k" in capsys.readouterr().err


def test_drc_retry_cap():
    params = DrcParams(Fraction(1, 2), 2, 1, 2)
    assert drc_subset(complete_bipartite(32, 32), params, RngStream(1),
                      retry_cap=0) == \
        Failure("drc_subset", "retry cap exhausted", {})


def test_build_aux_pair_matching():
    matching = BipartiteGraph(4, 4, [(i, 4 + i) for i in range(4)])
    aux = build_aux_pair(matching, range(10), complete_bipartite(10, 6), 6)
    assert sorted(tuple(sorted(e)) for e in aux.target.edges) == \
        [(0,), (1,), (2,), (3,)]
    assert aux.target.max_degree == 1
    assert aux.dch.k == 1 and len(aux.dch.deleted_ranks) == 0
    assert aux.u_vertices == tuple(range(10))


def test_build_aux_pair_q3():
    q3 = hypercube(3)
    side1, side2 = try_bipartition(q3)
    pos = {v: i for i, v in enumerate(side1 + side2)}
    edges = [tuple(sorted((pos[u], pos[v]))) for u, v in q3.edges()]
    hq = BipartiteGraph(4, 4, edges)
    aux = build_aux_pair(hq, range(10), complete_bipartite(10, 8), 8)
    assert aux.target.n == 4
    assert sorted(tuple(sorted(e)) for e in aux.target.edges) == \
        list(itertools.combinations(range(4), 3))
    assert aux.target.max_degree == 3
    assert not aux.dch.deleted_ranks  # complete host: 8 common neighbors


def test_build_aux_pair_bipartite_host():
    # C6 host: each V1 pair has exactly one common V2 neighbor
    c6 = BipartiteGraph(3, 3, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
    h = BipartiteGraph(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    aux1 = build_aux_pair(h, (0, 1, 2), c6, 1)
    assert len(aux1.dch.deleted_ranks) == 0
    assert math.comb(aux1.dch.N, aux1.dch.k) == 3
    aux2 = build_aux_pair(h, (0, 1, 2), c6, 2)
    assert len(aux2.dch.deleted_ranks) == math.comb(aux2.dch.N, aux2.dch.k)
    assert [tuple(sorted(e)) for e in aux2.target.edges] == [(0, 1)]


@pytest.mark.parametrize("k, n", [(1, 10), (2, 5), (3, 3)])
def test_build_aux_pair_matches_mask_oracle(k, n):
    # V2 vertex 0 of H sees k V1 vertices, so the host uniformity is k
    h = BipartiteGraph(4, 2, [(i, 4) for i in range(k)] + [(3, 5)])
    G = _random_bipartite(20, 0.5, 50 + k)
    aux = build_aux_pair(h, range(20), G, n)
    u = aux.u_vertices
    want = {S for S in itertools.combinations(range(len(u)), k)
            if functools.reduce(operator.and_, (G.adj[u[i]] for i in S),
                                G.mask(2)).bit_count() < n}
    assert aux.dch.k == k and aux.dch.deleted == want
    assert 0 < len(want) < math.comb(len(u), k)


def test_build_aux_pair_guards():
    empty = BipartiteGraph(2, 2, [])
    for deleted in (None, [0]):  # a given list is read past the guards
        with pytest.raises(GuardError, match="V2 side of H has no edges"):
            build_aux_pair(empty, range(4), complete_bipartite(4, 4), 1,
                           deleted=deleted)
    matching = BipartiteGraph(2, 2, [(0, 2), (1, 3)])
    with pytest.raises(GuardError):
        build_aux_pair(matching, (), complete_bipartite(4, 4), 1)
    # the pipeline hands its DRC list over only through that guard
    col = random_coloring(complete_graph(256), 2, RngStream(1))
    with pytest.raises(GuardError, match="V2 side of H has no edges"):
        bip_ramsey_pipeline(col, Graph(4, []), RngStream(2))


def test_drc_thin_list_is_the_aux_hosts_deleted_set():
    B = _random_bipartite(96, 0.55, 77)
    params = DrcParams(Fraction(1, 2), 3, Fraction(3, 4), 16)
    thin = []
    res = drc_subset(B, params, RngStream(3), thin=thin)
    assert res == drc_subset(B, params, RngStream(3))
    assert len(thin) == res.bad_k_sets > 0
    h = BipartiteGraph(3, 1, [(0, 3), (1, 3), (2, 3)])  # V2 degree k = 3
    aux = build_aux_pair(h, res.U, B, 16)
    assert frozenset(thin) == aux.dch.deleted_ranks


@pytest.mark.parametrize("N, d", [(256, 3), (512, 3), (512, 4)])
def test_pipeline_aux_host_matches_a_fresh_build(monkeypatch, N, d):
    build = lll_embed.build_aux_pair
    calls = []

    def spy(H, U, G, n, **kwargs):
        aux = build(H, U, G, n, **kwargs)
        calls.append(((H, U, G, n), kwargs, aux))
        return aux

    monkeypatch.setattr(lll_embed, "build_aux_pair", spy)
    for seed in range(3):
        col = random_coloring(complete_graph(N), 2, RngStream(8000 + seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bip_ramsey_pipeline(col, hypercube(d), RngStream(seed))
    assert len(calls) == 3
    for args, kwargs, aux in calls:
        assert kwargs.keys() == {"deleted"}
        assert aux.dch.deleted_ranks == build(*args).dch.deleted_ranks
    # Q4 at N = 512 leaves thin 4-sets in every U; Q3 rarely does
    assert (d == 4) <= all(aux.dch.deleted_ranks for *_, aux in calls)


def test_pipeline_single_edge_k3_exhaustive():
    k3 = complete_graph(3)
    k2 = Graph(2, [(0, 1)])
    for bits in range(8):
        cmap = {e: bits >> i & 1 for i, e in enumerate(k3.edges())}
        col = EdgeColoring(k3, cmap, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bip_ramsey_pipeline(col, k2, RngStream(3))
        assert res.color == (0 if col.class_size(0) >= col.class_size(1) else 1)
        u, v = res.mapping
        assert col.color_of(u, v) == res.color


def test_pipeline_c4_adversarial():
    # one color is a clique on half the vertices; the other color dominates
    host = complete_graph(64)
    col = EdgeColoring(host, {(u, v): 0 if v < 32 else 1
                              for u, v in host.edges()}, 2)
    with pytest.warns(RuntimeWarning):
        res = bip_ramsey_pipeline(col, C4, RngStream(4))
    assert res.color == 1
    assert len(set(res.mapping)) == 4
    for u, v in C4.edges():
        assert col.color_of(res.mapping[u], res.mapping[v]) == 1


def test_pipeline_direct_search_failure():
    # majority color of this K4 coloring is a star, which contains no C4
    k4 = complete_graph(4)
    col = EdgeColoring(k4, {(u, v): 0 if u == 0 else 1
                            for u, v in k4.edges()}, 2)
    res = bip_ramsey_pipeline(col, C4, RngStream(5))
    assert isinstance(res, Failure) and res.stage == "direct_embed"


def test_pipeline_q3_into_k512():
    q3 = hypercube(3)
    for seed in (0, 1):
        rng = RngStream(7000 + seed)
        col = random_coloring(complete_graph(512), 2, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bip_ramsey_pipeline(col, q3, rng)
        assert not isinstance(res, Failure)
        assert len(set(res.mapping)) == 8
        for u, v in q3.edges():
            assert col.color_of(res.mapping[u], res.mapping[v]) == res.color


def test_pipeline_determinism():
    col = random_coloring(complete_graph(128), 2, RngStream(99))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = bip_ramsey_pipeline(col, C4, RngStream(42))
        b = bip_ramsey_pipeline(col, C4, RngStream(42))
    assert a == b
    assert isinstance(a, type(b)) and a.mapping == b.mapping


def test_pipeline_guards_and_failures():
    k4 = complete_graph(4)
    col3 = random_coloring(k4, 3, RngStream(1))
    with pytest.raises(GuardError):
        bip_ramsey_pipeline(col3, C4, RngStream(1))
    incomplete = EdgeColoring(Graph(4, [(0, 1)]), {(0, 1): 0}, 2)
    with pytest.raises(GuardError):
        bip_ramsey_pipeline(incomplete, C4, RngStream(1))
    col = random_coloring(k4, 2, RngStream(2))
    with pytest.raises(GuardError):
        bip_ramsey_pipeline(col, complete_graph(3), RngStream(1))
    col3v = random_coloring(complete_graph(3), 2, RngStream(3))
    res = bip_ramsey_pipeline(col3v, C4, RngStream(1))
    assert isinstance(res, Failure) and res.stage == "params"
