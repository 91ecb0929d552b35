"""Tests for degree filters, cover partitions, K_{t,t} search, the
bicomplete-sequence pipeline, path extraction, and minor assembly."""

import dataclasses
import gc
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from exlab import weakseq
from exlab.core import (MAX_VERTICES, BipartiteGraph, Failure, Graph,
                        GuardError, RngStream,
                        complete_bipartite, complete_graph, hypercube,
                        iter_bits, mask_of, random_bipartite, random_graph)
from exlab.weakseq import (CoverPartition, MinorConstants, MinorModel,
                           PathsParams, PathsResult, WeakSequence,
                           _ceil_frac, _incidence_graph, cover_partition,
                           degree_filter, find_ktt,
                           load_preset, max_weak_sequence_order,
                           minor_pipeline, paths_drc,
                           regime2_order, seq_params, verify_sequence,
                           verify_minor, weak_sequence_pipeline)


def c6_bipartite():
    return BipartiteGraph(3, 3, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5),
                                 (0, 5)])


# ---------------------------------------------------------------------------
# degree_filter


def test_sparse_filter_complete():
    kept = degree_filter(complete_bipartite(4, 5), "sparse", 1)
    assert kept == tuple(range(4, 9))


def test_sparse_filter_half_isolated():
    # V2 vertices 4..6 fully joined, 7..9 isolated: density exactly 1/2
    b = BipartiteGraph(4, 6, [(i, 4 + j) for i in range(4) for j in range(3)])
    assert b.density() == Fraction(1, 2)
    kept = degree_filter(b, "sparse", Fraction(1, 2))
    assert kept == (4, 5, 6)
    assert len(kept) >= Fraction(1, 2) * 6 / 2


def test_dense_filter_uniform():
    # circulant rows: every V2 vertex sees 6 of 8, density exactly 1 - 1/4
    pairs = [((j + s) % 8, 8 + j) for j in range(6) for s in range(6)]
    b = BipartiteGraph(8, 6, pairs)
    assert b.density() == 1 - Fraction(1, 4)
    kept = degree_filter(b, "dense", Fraction(1, 4))
    assert kept == tuple(range(8, 14))


def test_degree_filter_guards():
    b = complete_bipartite(4, 4)
    with pytest.raises(GuardError):
        degree_filter(c6_bipartite(), "sparse", Fraction(3, 4))
    with pytest.raises(GuardError):
        degree_filter(c6_bipartite(), "dense", Fraction(1, 100))
    with pytest.raises(ValueError):
        degree_filter(b, "medium", Fraction(1, 2))


# ---------------------------------------------------------------------------
# Integer degree cuts against Fraction compares: thresholds on an integer
# and 10^-9 to either side of one

_EPS = Fraction(1, 10 ** 9)


def _outcome(fn, *args):
    """fn's result, or the type of the guard or clause error it raised."""
    try:
        return fn(*args)
    except (GuardError, AssertionError) as err:
        return type(err)


def _spread_bipartite(n1, n2, seed):
    """V2 vertices whose degrees spread over [0, n1], most of them high."""
    rnd = random.Random(seed)
    return BipartiteGraph(n1, n2, [
        (u, n1 + j) for j in range(n2)
        for u in rnd.sample(range(n1), n1 - int(n1 * rnd.random() ** 3))])


def _filter_reference(B, mode, value):
    if mode == "sparse":
        guard, cut, floor = value, value * B.n1 / 2, value * B.n2 / 2
    else:
        guard, cut, floor = 1 - value, (1 - 2 * value) * B.n1, B.n2 / 2
    if B.density() < guard:
        return GuardError
    kept = tuple(b for b in B.v2 if (B.adj[b] & B.mask(1)).bit_count() > cut)
    return AssertionError if len(kept) < floor else kept


def test_degree_filter_matches_fraction_compares():
    exact = 0
    for seed in range(6):
        B = _spread_bipartite(30, 40, seed)
        degrees = {B.degree(b) for b in B.v2}
        for d, off in itertools.product(range(B.n1 + 1), (0, _EPS, -_EPS)):
            # both values put the cut at d, off by a multiple of off
            for mode, value in (("sparse", Fraction(2 * d, B.n1) + off),
                                ("dense", Fraction(B.n1 - d, 2 * B.n1) + off)):
                want = _filter_reference(B, mode, value)
                assert _outcome(degree_filter, B, mode, value) == want
                exact += not off and d in degrees and type(want) is tuple
    assert exact > 20


def _cleanup_reference(G, threshold):
    """The largest vertex set whose induced degrees all reach threshold."""
    alive = set(range(G.n))
    while low := {v for v in alive
                  if sum(G.has_edge(v, w) for w in alive) < threshold}:
        alive -= low
    return sorted(alive)


def test_cleanup_matches_fraction_compares():
    partial = 0
    for seed, p in itertools.product(range(3), (0.2, 0.4, 0.6)):
        G = random_graph(30, p, RngStream(seed))
        for d, off in itertools.product(range(20), (0, _EPS, -_EPS)):
            got = weakseq._cleanup(G, d + off)
            assert got == _cleanup_reference(G, d + off)
            partial += 0 < len(got) < G.n
    assert partial > 10


def _split_reference(G, alive, threshold, edge_floor, rng, retry_cap):
    """``_balanced_split`` with per-pair edge tests and Fraction compares."""
    order = list(alive)
    for _ in range(max(retry_cap, 1)):
        rng.shuffle(order)
        half = len(order) // 2
        sides = [set(order[:half]), set(order[half:2 * half])]

        def cross(v, i):
            return sum(G.has_edge(v, w) for w in sides[1 - i])

        while True:
            low = [(i, v) for i in (0, 1) for v in sorted(sides[i])
                   if cross(v, i) < threshold]
            if low:
                sides[low[0][0]].discard(low[0][1])
            elif len(sides[0]) != len(sides[1]):
                i = int(len(sides[1]) > len(sides[0]))
                sides[i].discard(min(sides[i], key=lambda v: (cross(v, i), v)))
            else:
                break
        if sides[0] and sum(cross(v, 0) for v in sides[0]) >= edge_floor:
            return sorted(sides[0]), sorted(sides[1])
    return None


def test_balanced_split_matches_fraction_compares():
    found = 0
    for seed, p in itertools.product(range(2), (0.3, 0.5, 0.7)):
        G = random_graph(28, p, RngStream(seed))
        alive = list(range(1, G.n))
        for d, off in itertools.product(range(2, 11, 2), (0, _EPS, -_EPS)):
            floor = Fraction(p * G.n ** 2 / 16)
            ours, theirs = RngStream(d), RngStream(d)
            got = weakseq._balanced_split(G, alive, d + off, floor, ours, 3)
            assert got == _split_reference(G, alive, d + off, floor, theirs, 3)
            assert ours.position == theirs.position
            found += got is not None
    assert found > 5
# ---------------------------------------------------------------------------
# cover_partition


def test_cover_partition_complete():
    cp = cover_partition(complete_bipartite(6, 3), 2, RngStream(1))
    assert cp.met and cp.tries == 1
    assert cp.fraction == 0 and cp.threshold == 0
    assert sorted(v for blk in cp.blocks for v in blk) == list(range(6))
    assert all(len(blk) == 2 for blk in cp.blocks)


def test_cover_partition_r1_is_density_complement():
    rng = RngStream(17)
    pairs = [(i, 8 + j) for i in range(8) for j in range(5)
             if rng.randrange(3) > 0]
    b = BipartiteGraph(8, 5, pairs)
    cp = cover_partition(b, 1, rng.derive("part"))
    # r=1: a (singleton, b) pair is uncovered exactly when it is a non-edge
    assert cp.fraction == 1 - b.density()
    assert cp.met and cp.tries == 1


def test_cover_partition_exact_min_degree():
    # every V2 vertex gets exactly 32 of 64 neighbors: threshold (1/2)^4
    rng = RngStream(64)
    pairs = [(i, 64 + j) for j in range(20)
             for i in rng.sample(range(64), 32)]
    b = BipartiteGraph(64, 20, pairs)
    cp = cover_partition(b, 4, rng.derive("part"))
    assert cp.threshold == Fraction(1, 16)
    assert cp.met and cp.tries == 2
    assert cp.fraction == Fraction(3, 80)
    # recount the uncovered pairs independently from the returned blocks
    bad = sum(1 for blk in cp.blocks for w in b.v2
              if not any(b.has_edge(u, w) for u in blk))
    assert cp.fraction == Fraction(bad, len(cp.blocks) * 20)


def test_cover_partition_cap_returns_best():
    b = BipartiteGraph(4, 1, [(0, 4), (1, 4)])
    cp = cover_partition(b, 2, RngStream(5), retry_cap=1)
    assert not cp.met and cp.tries == 1
    assert cp.blocks == ((0, 1), (2, 3))
    assert cp.fraction == Fraction(1, 2) and cp.threshold == Fraction(1, 4)
    cp2 = cover_partition(b, 2, RngStream(5), retry_cap=50)
    assert cp2.met and cp2.tries == 3 and cp2.fraction == 0


def incidence_rows_per_pair(B, blocks):
    """Reference incidence rows: v ~ block j when v's row meets block j's
    mask, one AND per (V2 vertex, block) pair."""
    rows = [0] * (B.n + len(blocks))
    for j, blk in enumerate(blocks):
        m = mask_of(blk)
        for v in B.v2:
            if B.adj[v] & m:
                rows[v] |= 1 << (B.n + j)
                rows[B.n + j] |= 1 << v
    return tuple(rows)


def uncovered_fraction_per_pair(B, blocks):
    """Reference cover fraction: (block, V2 vertex) pairs without an edge."""
    bad = sum(1 for blk in blocks for v in B.v2 if not B.adj[v] & mask_of(blk))
    return Fraction(bad, len(blocks) * B.n2)


def test_block_relation_matches_pair_loop():
    rng = RngStream(29)
    hosts = []
    # (n1, n2, r): r = 1, d = 1 (r = n1) and sizes off byte boundaries
    for i, (n1, n2, r) in enumerate(((8, 5, 1), (12, 7, 3), (12, 9, 12),
                                     (40, 33, 4), (9, 17, 9))):
        B = random_bipartite(n1, n2, 0.4, rng.derive("host", i))
        hosts.append((B, r))
        # V2 vertex n1 loses every V1 neighbour
        hosts.append((BipartiteGraph(n1, n2, [
            e for e in B.edges() if n1 not in e]), r))
    # an induced subgraph keeps its host's scattered ids, as in the pipeline
    g = random_graph(60, 0.5, rng.derive("g"))
    ids = list(range(60))
    rng.derive("split").shuffle(ids)
    hosts.append((BipartiteGraph.induced(g, mask_of(ids[:24]),
                                         mask_of(ids[24:45])), 4))
    for k, (B, r) in enumerate(hosts):
        for seed in range(3):
            cp = cover_partition(B, r, RngStream(seed), retry_cap=1)
            assert cp.fraction == uncovered_fraction_per_pair(B, cp.blocks), \
                (k, seed)
            X = _incidence_graph(B, cp.blocks)
            assert X.adj == incidence_rows_per_pair(B, cp.blocks), (k, seed)
            assert X.mask(1) == B.mask(2)
            assert X.mask(2) == ((1 << len(cp.blocks)) - 1) << B.n


def test_cover_partition_guards():
    with pytest.raises(GuardError):
        cover_partition(complete_bipartite(5, 2), 2, RngStream(0))


# ---------------------------------------------------------------------------
# find_ktt


def test_find_ktt_complete():
    assert find_ktt(complete_bipartite(5, 5), 3) == ((0, 1, 2), (5, 6, 7))


def test_find_ktt_c6():
    assert find_ktt(c6_bipartite(), 2) is None
    assert find_ktt(c6_bipartite(), 1) == ((0,), (3,))


def brute_ktt_exists(b, t):
    v2 = list(b.v2)
    for left in itertools.combinations(range(b.n1), t):
        for right in itertools.combinations(v2, t):
            if all(b.has_edge(u, v) for u in left for v in right):
                return True
    return False


def test_find_ktt_matches_exhaustive_scan():
    rng = RngStream(23)
    for _ in range(40):
        n1 = 1 + rng.randrange(6)
        n2 = 1 + rng.randrange(6)
        pairs = [(i, n1 + j) for i in range(n1) for j in range(n2)
                 if rng.randrange(2)]
        b = BipartiteGraph(n1, n2, pairs)
        for t in (1, 2, 3):
            wit = find_ktt(b, t)
            assert (wit is not None) == brute_ktt_exists(b, t)
            if wit is not None:
                left, right = wit
                assert len(left) == len(right) == t
                assert all(b.has_edge(u, v) for u in left for v in right)


def test_find_ktt_guards():
    b = complete_bipartite(3, 3)
    with pytest.raises(GuardError):
        find_ktt(b, 0)
    # no cap on t: the work budget bounds the search instead
    assert find_ktt(b, 13) is None
    assert find_ktt(complete_bipartite(14, 14), 13) == \
        (tuple(range(13)), tuple(range(14, 27)))
    assert find_ktt(b, 4) is None


def test_find_ktt_stops_at_its_work_budget(monkeypatch):
    # K_{3,3} minus a perfect matching has no K_{2,2}; proving it tries
    # vertex 0, then 1 and 2 after it, then vertex 1, then 2 after it
    b = BipartiteGraph(3, 3, [(u, 3 + v) for u in range(3) for v in range(3)
                              if u != v])
    assert find_ktt(b, 2) is None
    monkeypatch.setattr(weakseq, "KTT_BUDGET", 5)
    assert find_ktt(b, 2) is None
    monkeypatch.setattr(weakseq, "KTT_BUDGET", 4)
    res = find_ktt(b, 2)
    assert isinstance(res, Failure)
    assert (res.stage, res.reason) == ("find_ktt", "search budget exhausted")
    assert res.stats == {"nodes": 4, "t": 2}


def test_find_ktt_frees_its_graph_without_the_cycle_collector():
    # the stage graphs are large; a reference cycle would keep each one
    # alive until a full collection and inflate the peak memory of a run
    b = complete_bipartite(4, 4)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert find_ktt(b, 2) == ((0, 1), (4, 5))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# verify_sequence


def test_verify_sequence_reasons():
    # the pair reason: test_verify_sequence_names_broken_pair
    g = complete_graph(12)
    S = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    T = (frozenset({6, 7}), frozenset({8, 9}), frozenset({10, 11}))
    assert verify_sequence(g, WeakSequence("bicomplete", 2, 3, S, T)) == \
        (True, None)
    overlap = WeakSequence("bicomplete", 2, 2, S[:2],
                           (frozenset({3, 6}), frozenset({7, 8})))
    assert verify_sequence(g, overlap) == \
        (False, ("overlap", ("S", 1), ("T", 0)))
    short = WeakSequence("bicomplete", 2, 2, S[:2], (T[0], frozenset({8})))
    assert verify_sequence(g, short) == (False, ("size", ("T", 1)))
    wrong_order = WeakSequence("bicomplete", 2, 3, S[:2], T[:2])
    assert verify_sequence(g, wrong_order) == (False, ("order", 2))


def test_verify_sequence_names_broken_pair():
    # vertex 8 is isolated; swapping it into a singleton kills the pair
    g = Graph(9, list(itertools.combinations(range(8), 2)))
    good = WeakSequence("bicomplete", 1, 2,
                        (frozenset({0}), frozenset({1})),
                        (frozenset({2}), frozenset({3})))
    assert verify_sequence(g, good) == (True, None)
    bad = WeakSequence("bicomplete", 1, 2,
                       (frozenset({0}), frozenset({1})),
                       (frozenset({2}), frozenset({8})))
    assert verify_sequence(g, bad) == (False, ("pair", 0, 1))


def test_verify_sequence_validation_errors():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        verify_sequence(g, WeakSequence("ring", 1, 1, (frozenset({0}),)))
    # no construction builds the all-S-pairs kind any more
    with pytest.raises(ValueError, match="unknown kind"):
        verify_sequence(g, WeakSequence("complete", 1, 1, (frozenset({0}),),
                                        (frozenset({1}),)))
    with pytest.raises(ValueError):
        verify_sequence(g, WeakSequence("bicomplete", 1, 1, (frozenset({0}),)))
    with pytest.raises(ValueError, match="out-of-range"):
        verify_sequence(g, WeakSequence("bicomplete", 1, 1, (frozenset({9}),),
                                        (frozenset({0}),)))


def test_padding_preserves_verification():
    g = complete_graph(16)
    with pytest.warns(RuntimeWarning):
        w = weak_sequence_pipeline(g, 2, 2, RngStream(11))
    used = set().union(*w.s_sets, *w.t_sets)
    pool = sorted(set(range(16)) - used)
    assert len(pool) == 8
    # pad every set to r' = n/2t = 4 with fresh vertices
    pads = iter(pool)
    pad = lambda s: frozenset(s) | {next(pads), next(pads)}
    padded = WeakSequence("bicomplete", 4, 2,
                          tuple(pad(s) for s in w.s_sets),
                          tuple(pad(s) for s in w.t_sets))
    assert verify_sequence(g, padded) == (True, None)


# ---------------------------------------------------------------------------
# seq_params / regime2_order


def test_seq_params_derived_quantities():
    sp = seq_params(16, Fraction(1, 2), 2, 1)
    assert sp.rho == Fraction(9, 16)
    assert sp.part_floor == Fraction(1, 4)
    assert abs(float(sp.delta_target) - math.exp(-0.25)) < 1e-9


def test_seq_params_regimes():
    assert seq_params(5000, 1, 2, 1).regime == 1
    assert seq_params(10 ** 11, 1, 5, 10).regime == 2
    assert seq_params(10 ** 4, 1, 13, 5).regime == 3
    assert seq_params(2000, Fraction(1, 2), 4, 1).regime == 0
    with pytest.raises(GuardError):
        seq_params(10, 0, 1, 1)
    with pytest.raises(GuardError):
        seq_params(10, Fraction(1, 2), 0, 1)


def test_regime2_order():
    assert regime2_order(2000, Fraction(1, 2), 4) == 1
    expected = math.floor(math.exp(12.5) * math.log(10 ** 6) / 16)
    assert regime2_order(10 ** 6, 1, 10) == expected
    assert regime2_order(2, Fraction(1, 10 ** 6), 1) == 1


# ---------------------------------------------------------------------------
# weak_sequence_pipeline


def test_pipeline_complete_hosts():
    g = complete_graph(16)
    with pytest.warns(RuntimeWarning):
        w = weak_sequence_pipeline(g, 2, 2, RngStream(11))
    assert isinstance(w, WeakSequence)
    assert w.kind == "bicomplete" and w.r == 2 and w.t == 2
    assert verify_sequence(g, w) == (True, None)
    assert w.stats["case"] in (1, 2)
    # 2rt = n boundary still succeeds
    with pytest.warns(RuntimeWarning):
        w12 = weak_sequence_pipeline(complete_graph(12), 3, 2, RngStream(11))
    assert isinstance(w12, WeakSequence)


def test_pipeline_guards():
    g = complete_graph(8)
    with pytest.raises(GuardError):
        weak_sequence_pipeline(g, 2, 3, RngStream(0))
    with pytest.raises(GuardError):
        weak_sequence_pipeline(g, 0, 1, RngStream(0))
    with pytest.raises(GuardError):
        weak_sequence_pipeline(Graph(6, []), 1, 1, RngStream(0))


def test_pipeline_failure_carries_stage_stats():
    # G(24, 0.1) at t = 3 ends in find_ktt for 285 seeds of 300
    rng = RngStream(402)
    g = random_graph(24, 0.1, rng.derive("gen"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = weak_sequence_pipeline(g, 2, 3, rng.derive("run"))
    assert isinstance(res, Failure)
    assert res.stage == "find_ktt"
    assert "t_parts" in res.stats and "fraction2" in res.stats


def test_pipeline_acceptance_scale_clauses():
    rng = RngStream(7000)
    g = random_graph(2000, 0.5, rng.derive("gen"))
    t = regime2_order(2000, g.density(), 4)
    assert t == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = weak_sequence_pipeline(g, 4, t, rng.derive("run"))
    assert isinstance(w, WeakSequence)
    assert verify_sequence(g, w) == (True, None)
    s = w.stats
    assert s["filter1_size"] >= s["filter1_floor"]
    assert s["fraction1"] <= s["threshold1"]
    assert s["s_size"] >= s["filter2_floor"]
    assert s["fraction2"] <= s["threshold2"]
    assert min(s["t_parts"]) >= seq_params(2000, s["p"], 4, t).part_floor
    assert s["t_delta"] <= s["delta_target"]


def test_pipeline_deterministic():
    g = complete_graph(16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = weak_sequence_pipeline(g, 2, 2, RngStream(11))
        b = weak_sequence_pipeline(g, 2, 2, RngStream(11))
    assert a == b


# ---------------------------------------------------------------------------
# paths_drc


def test_paths_complete_default_constants():
    h = complete_bipartite(900, 900)
    res = paths_drc(h, RngStream(3))
    assert isinstance(res, PathsResult)
    assert res.X == tuple(range(36))  # ceil(1 * 1800 / 50)
    assert res.budget == 1 and res.tries == 1


def test_paths_override_floor_and_budget():
    h = complete_bipartite(40, 40)
    res = paths_drc(h, RngStream(3), PathsParams(min_p2n=30))
    assert res.X == (0, 1) and res.budget == 1
    res = paths_drc(h, RngStream(3),
                    PathsParams(min_p2n=30, budget_coeff=Fraction(1, 10)))
    assert res.X == (0, 1) and res.budget == 8


def test_paths_random_instance():
    rng = RngStream(77)
    n1 = 200
    gen = rng.derive("rows")
    pairs = [(i, n1 + j) for i in range(n1) for j in range(n1)
             if gen.randrange(10) < 8]
    h = BipartiteGraph(n1, n1, pairs)
    res = paths_drc(h, rng.derive("run"), PathsParams(min_p2n=200))
    assert isinstance(res, PathsResult)
    p = h.density()
    assert len(res.X) == -((-p.numerator * 400) // (p.denominator * 50))
    assert res.budget == 1 and res.tries == 1


def test_paths_trivial_singleton():
    res = paths_drc(complete_bipartite(4, 4), RngStream(2),
                    PathsParams(min_p2n=1))
    assert res.X == (0,) and res.budget == 1 and res.tries == 1


def test_paths_failure_reasons():
    h = complete_bipartite(4, 4)
    res = paths_drc(h, RngStream(2), PathsParams(min_p2n=1, x_frac_div=1))
    assert isinstance(res, Failure)
    assert res.reason == "common neighborhood below target"
    assert res.stats == {"x_size": 4, "target": 8}
    res = paths_drc(c6_bipartite(), RngStream(2),
                    PathsParams(min_p2n=0, x_frac_div=3,
                                budget_coeff=Fraction(100)), retry_cap=5)
    assert isinstance(res, Failure)
    assert res.reason == "pair below path budget"
    assert res.stats["pair"] == (0, 1)
    assert res.stats["count"] == 1 and res.stats["budget"] == 80


def test_paths_small_success():
    res = paths_drc(c6_bipartite(), RngStream(2),
                    PathsParams(min_p2n=0, x_frac_div=3))
    assert res.X == (0, 1) and res.budget == 1 and res.tries == 1


def test_paths_guards():
    with pytest.raises(GuardError):
        paths_drc(complete_bipartite(40, 40), RngStream(0))
    with pytest.raises(GuardError):
        paths_drc(complete_bipartite(3, 4), RngStream(0))
    with pytest.raises(GuardError):
        paths_drc(BipartiteGraph(3, 3, []), RngStream(0))


# The per-pair extraction paths_drc used before it ran the greedy for every
# y of one x at once, kept as the oracle: a fresh walk of the middles per
# pair, two ANDs and a pick per middle, then a re-check of every path.


def pick_two(a_cands, b_cands):
    if not a_cands or not b_cands:
        return None
    a = a_cands & -a_cands
    rest_b = b_cands & ~a
    if rest_b:
        return a.bit_length() - 1, (rest_b & -rest_b).bit_length() - 1
    rest_a = a_cands & ~b_cands
    if rest_a:
        return (rest_a & -rest_a).bit_length() - 1, b_cands.bit_length() - 1
    return None


def greedy_paths(adj, x, y, middles, budget, middle_ranks, fallbacks=None):
    used = 0
    paths = []
    for rank, m in enumerate(middles):
        if used >> m & 1:
            continue
        a_cands = adj[x] & adj[m] & ~used
        b_cands = adj[y] & adj[m] & ~used
        pick = pick_two(a_cands, b_cands)
        if pick is None:
            continue
        a, b = pick
        if fallbacks is not None and 1 << a != a_cands & -a_cands:
            fallbacks.append((x, y, m))
        paths.append((x, a, m, b, y))
        middle_ranks.append(rank)
        used |= (1 << a) | (1 << m) | (1 << b)
        if len(paths) == budget:
            break
    return paths


def paths_drc_oracle(H, rng, c, retry_cap, middle_ranks):
    n = H.n1 + H.n2
    p = H.density()
    target = _ceil_frac(p * n / c.x_frac_div)
    budget = max(1, _ceil_frac(Fraction(c.budget_coeff) * p ** 5 * n))
    v2 = list(H.v2)
    best = None
    for tries in range(1, max(retry_cap, 1) + 1):
        v = rng.choice(v2)
        nbhd = H.adj[v] & H.mask(1)
        if nbhd.bit_count() < target:
            cand = {"x_size": nbhd.bit_count(), "target": target}
            if best is None or cand.get("x_size", 0) > best.get("x_size", -1):
                best = cand
            continue
        X = []
        for u in iter_bits(nbhd):
            X.append(u)
            if len(X) == target:
                break
        xmask = mask_of(X)
        middles = list(iter_bits(H.mask(1) & ~xmask))
        shortfall = None
        for x, y in itertools.combinations(X, 2):
            paths = greedy_paths(H.adj, x, y, middles, budget, middle_ranks)
            if len(paths) < budget:
                shortfall = {"pair": (x, y), "count": len(paths),
                             "budget": budget, "x_size": len(X)}
                break
            seen = 0
            for (px, a, m, b, py) in paths:
                for u, w in ((px, a), (a, m), (m, b), (b, py)):
                    assert H.has_edge(u, w)
                inner = (1 << a) | (1 << m) | (1 << b)
                assert not (inner & seen or inner & xmask)
                seen |= inner
        if shortfall is None:
            return PathsResult(tuple(X), budget, tries)
        if best is None or shortfall["count"] > best.get("count", -1):
            best = shortfall
    reason = ("pair below path budget" if best and "count" in best
              else "common neighborhood below target")
    return Failure("paths_drc", reason, best or {})


def test_paths_drc_matches_per_pair_oracle():
    middle_ranks = []
    outcomes = set()
    # (n1, budget, x_frac_div, retry_cap); the last X target exceeds most
    # neighbourhoods, and a cap of 2-4 tries runs out on every failure
    cases = ((40, 1, 3, 4), (120, 2, 8, 3), (30, 8, 2, 2), (50, 9, 5, 3),
             (24, 1, 1, 2))
    for p, seed, (case, (n1, budget, x_div, cap)) in itertools.product(
            (0.05, 0.3, 0.7, 0.9), range(3), enumerate(cases)):
        gen = RngStream(1000 * seed + 100 * case + int(100 * p))
        H = random_bipartite(n1, n1, p, gen.derive("host"))
        if H.m == 0:
            continue
        dens, n = H.density(), 2 * n1
        c = PathsParams(x_frac_div=x_div, min_p2n=0,
                        budget_coeff=Fraction(budget) / (dens ** 5 * n))
        got_rng, want_rng = gen.derive("run"), gen.derive("run")
        got = paths_drc(H, got_rng, c, cap)
        want = paths_drc_oracle(H, want_rng, c, cap, middle_ranks)
        assert got == want, (p, seed, case)
        assert got_rng.position == want_rng.position
        if isinstance(got, PathsResult):
            assert got.budget == budget
        outcomes.add(got.reason if isinstance(got, Failure) else "ok")
    assert outcomes == {"ok", "pair below path budget",
                        "common neighborhood below target"}
    # some pair found a path only well past the first middles
    assert max(middle_ranks) >= 10


def short_pairs(adj, X, middles, budget, fallbacks):
    """Every pair of X below the budget, in combinations order, with its
    greedy path count."""
    out = []
    for x, y in itertools.combinations(X, 2):
        paths = greedy_paths(adj, x, y, middles, budget, [], fallbacks)
        if len(paths) < budget:
            out.append(((x, y), len(paths)))
    return out


def test_first_short_pair_matches_per_pair_greedy():
    # x = 0 shares {3, 4} with the middle 2 and y = 1 only 3, so the one
    # path takes a = 4, b = 3; without the edge 0-4 the pair falls short
    edges = [(0, 3), (0, 4), (1, 3), (2, 3), (2, 4)]
    full = BipartiteGraph(3, 3, edges)
    cut = BipartiteGraph(3, 3, edges[:1] + edges[2:])
    assert weakseq._first_short_pair(full.adj, [0, 1], [2], 1) is None
    assert weakseq._first_short_pair(cut.adj, [0, 1], [2], 1) == ((0, 1), 0)
    fallbacks, budgets, seen = [], set(), set()
    for case in range(300):
        gen = RngStream(2500 + case)
        n1 = 6 + gen.randrange(19)
        p = (0.05, 0.15, 0.3, 0.5, 0.7, 0.9)[case % 6]
        H = random_bipartite(n1, 4 + gen.randrange(21), p, gen.derive("host"))
        v1 = list(H.v1)
        gen.shuffle(v1)
        k = 2 + gen.randrange(n1 - 1)
        X, middles = v1[:k], v1[k:]
        adj = list(H.adj)
        if case % 5 == 0:  # X's last vertex loses its edges
            adj = [row & ~(1 << X[-1]) for row in adj]
            adj[X[-1]] = 0
        budget = 1 + case % 6
        got = weakseq._first_short_pair(adj, X, middles, budget)
        want = short_pairs(adj, X, middles, budget, fallbacks)
        assert got == (want[0] if want else None), case
        if got is None:
            continue
        budgets.add(budget)
        (x, y), _ = got
        short_ys = [pair[1] for pair, _ in want if pair[0] == x]
        seen.add("x after y" if x > y else "x before y")
        if y != X[X.index(x) + 1]:
            seen.add("an earlier y passed")
        if y != min(short_ys):
            seen.add("a lower short y comes later in X")
        if y == X[-1]:
            seen.add("y is the last of X")
    # the cb == {a} fallback took part of some pair's paths
    assert fallbacks
    assert budgets == set(range(1, 7))
    assert seen == {"x after y", "x before y", "an earlier y passed",
                    "a lower short y comes later in X", "y is the last of X"}


_MALFORMED_PATH_HOSTS = """
import sys
from exlab.core import BipartiteGraph, RngStream
from exlab.weakseq import PathsParams, paths_drc

def host(pairs, v1=0b000111, v2=0b111000):
    # _from_parts takes the rows as given, one-way bits included
    rows = [0] * (v1 | v2).bit_length()
    for u, v in pairs:
        rows[u] |= 1 << v
    return BipartiteGraph._from_parts(rows, (v1, v2))

full = [(u, v) for u in range(3) for v in range(3, 6)]
full += [(v, u) for u, v in full]
# row 3 lacks vertex 2, so the path 0-3-2-4-1 misses the edge (3, 2)
one_way = host([e for e in full if e != (3, 2)])
# edges 0-1 and 1-2 inside V1 make X's vertex 1 a common neighbour of 0 and 2
inside = host(full + [(0, 1), (1, 0), (1, 2), (2, 1)])
# V1 = 0..3, V2 = 4..7 without the edge 1-4, and row 5 lacks vertex 2: X is
# 0, 1, 2 and the pick, which reads rows 1 and 2, takes 0-4-3-5-y for both
# ys at once; only the check of row 5 against every y of that group sees the
# gap, as x = 1 takes 1-5-3-4-2
wide = [(u, v) for u in range(4) for v in range(4, 8) if (u, v) != (1, 4)]
wide += [(v, u) for u, v in wide]
b_row = host([e for e in wide if e != (5, 2)], 0b1111, 0b11110000)
for H, div in ((one_way, 3), (inside, 4), (b_row, 3)):
    try:
        paths_drc(H, RngStream(0), PathsParams(x_frac_div=div, min_p2n=0))
    except AssertionError as exc:
        print(sys.flags.optimize, "raised", exc)
    else:
        print(sys.flags.optimize, "returned")
"""


def test_paths_recheck_survives_optimize_flag():
    # hosts built through BipartiteGraph._from_parts skip validation, so a
    # one-way row or an edge inside V1 gets a bad path past the greedy; the
    # re-check must still refuse it when python -O strips assert statements
    src = str(Path(weakseq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", _MALFORMED_PATH_HOSTS],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=60)
    assert out.stdout.splitlines() == [
        "1 raised extracted path misses an edge",
        "1 raised path internals collide",
        "1 raised extracted path misses an edge"], out.stdout + out.stderr


# ---------------------------------------------------------------------------
# minor_pipeline / verify_minor


def test_minor_complete_r1():
    g = complete_graph(64)
    desk = load_preset("desk")
    with pytest.warns(RuntimeWarning):
        m = minor_pipeline(g, 1, 4, RngStream(5), constants=desk)
    assert isinstance(m, MinorModel)
    # merged S_i/T_i pairs: every branch set is one crossing edge
    assert sorted(sorted(b) for b in m.branch_sets) == \
        [[0, 16], [8, 17], [14, 15], [20, 22]]
    assert m.size_cap == 8 and m.diameter_cap == 9
    assert verify_minor(g, m) == (True, None)


def test_minor_desk_random():
    desk = load_preset("desk")
    for seed in (1000, 1001):
        rng = RngStream(seed)
        g = random_graph(240, 0.7, rng.derive("gen"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = minor_pipeline(g, 2, 4, rng.derive("run"), constants=desk)
        assert isinstance(m, MinorModel)
        assert all(len(b) <= 16 for b in m.branch_sets)
        assert verify_minor(g, m) == (True, None)
        s = m.stats
        assert s["zprime_density"] >= s["p"] / weakseq.Z_DENSITY_DIV
        assert s["w_density"] >= s["p"] / weakseq.W_DENSITY_DIV


def test_minor_diameter_flag_and_determinism():
    g = complete_graph(64)
    desk = load_preset("desk")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = minor_pipeline(g, 1, 4, RngStream(5), constants=desk)
        b = minor_pipeline(g, 1, 4, RngStream(5), constants=desk)
        c = minor_pipeline(g, 1, 4, RngStream(5), constants=desk,
                           diameter_aware=False)
    assert a == b
    assert c.diameter_cap is None
    assert verify_minor(g, c) == (True, None)


def test_minor_failure_stages():
    rng = RngStream(31)
    g = random_graph(24, 0.3, rng.derive("gen"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = minor_pipeline(g, 2, 3, rng.derive("run"))
    assert isinstance(res, Failure) and res.stage == "paths_drc[1]"
    lone = Graph(24, [(0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = minor_pipeline(lone, 1, 2, RngStream(1))
    assert isinstance(res, Failure) and res.stage == "cleanup"
    assert res.stats["cleanup_size"] == 2


def test_minor_guards():
    with pytest.raises(GuardError):
        minor_pipeline(complete_graph(8), 0, 2, RngStream(0))
    with pytest.raises(GuardError):
        minor_pipeline(complete_graph(8), 1, 1, RngStream(0))
    with pytest.raises(GuardError):
        minor_pipeline(Graph(6, []), 1, 2, RngStream(0))


def test_verify_minor_negatives():
    g = complete_graph(8)
    touching = MinorModel((frozenset({0, 1}), frozenset({1, 2})), 8, None)
    assert verify_minor(g, touching) == (False, ("overlap", 0, 1))
    two_edges = Graph(4, [(0, 1), (2, 3)])
    no_join = MinorModel((frozenset({0, 1}), frozenset({2, 3})), 8, None)
    assert verify_minor(two_edges, no_join) == (False, ("pair", 0, 1))
    split_set = MinorModel((frozenset({1, 2}),), 8, None)
    assert verify_minor(two_edges, split_set) == (False, ("disconnected", 0))
    big = MinorModel((frozenset({0, 1}),), 1, None)
    assert verify_minor(g, big) == (False, ("size", 0))
    empty = MinorModel((frozenset(),), 8, None)
    assert verify_minor(g, empty) == (False, ("empty", 0))
    with pytest.raises(ValueError):
        verify_minor(g, MinorModel((frozenset({99}),), 8, None))


def test_verify_minor_diameter_cap():
    path = Graph(10, [(i, i + 1) for i in range(9)])
    whole = MinorModel((frozenset(range(10)),), 10, 9)
    assert verify_minor(path, whole) == (True, None)
    tight = MinorModel((frozenset(range(10)),), 10, 8)
    assert verify_minor(path, tight) == (False, ("diameter", 0))


def test_verify_minor_rejects_mutated_pipeline_minors():
    """Each single-set mutation of a built minor gets its own violation.
    r = 2 gives sets of 10 vertices that every free vertex of G(240, 0.7)
    touches, so the r = 1 pairs carry the ``disconnected`` mutations."""
    desk = load_preset("desk")
    rejected = {"empty": 0, "size": 0, "overlap": 0, "disconnected": 0}
    for seed, r in itertools.product(range(7100, 7103), (1, 2)):
        rng = RngStream(seed)
        g = random_graph(240, 0.7, rng.derive("gen"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = minor_pipeline(g, r, 4, rng.derive("run"), desk)
        assert verify_minor(g, model) == (True, None)
        sets = list(model.branch_sets)
        taken = mask_of(v for b in sets for v in b)
        free = [v for v in range(g.n) if not taken >> v & 1]

        def verdict(i, mutated):
            mutant = dataclasses.replace(
                model, branch_sets=tuple(sets[:i] + [mutated] + sets[i + 1:]))
            return verify_minor(g, mutant)

        for i, b in enumerate(sets):
            assert len(b) < model.size_cap
            mutants = [(frozenset(), ("empty", i)),
                       (b | set(free[:model.size_cap + 1 - len(b)]),
                        ("size", i))]
            mutants += [(b | {v}, ("overlap", min(i, j), max(i, j)))
                        for j, other in enumerate(sets) if j != i
                        for v in other]
            mutants += [(b | {v}, ("disconnected", i)) for v in free
                        if not g.adj[v] & mask_of(b)]
            for mutated, want in mutants:
                assert verdict(i, mutated) == (False, want), (seed, r, want)
                rejected[want[0]] += 1
            for v in (-1, g.n):
                with pytest.raises(ValueError, match="out-of-range"):
                    verdict(i, b | {v})
    assert rejected["empty"] == rejected["size"] == 24
    assert rejected["overlap"] == 3 * 12 * (2 + 10)
    assert rejected["disconnected"] >= 3 * 4 * 10


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_clique_number(g):
    best = 0
    for k in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return k
    return best


def brute_sequence_order(g, r):
    subsets = list(itertools.combinations(range(g.n), r))
    for k in range(g.n // r, 0, -1):
        for family in itertools.combinations(subsets, k):
            flat = set(itertools.chain.from_iterable(family))
            if len(flat) != k * r:
                continue
            if all(any(g.has_edge(u, v) for u in a for v in b)
                   for a, b in itertools.combinations(family, 2)):
                return k
    return 0


def test_sequence_oracle_frozen_values():
    assert max_weak_sequence_order(complete_graph(5), 1) == 5
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert max_weak_sequence_order(c5, 1) == 2
    assert max_weak_sequence_order(c5, 2) == 2
    q3 = hypercube(3)
    assert max_weak_sequence_order(q3, 1) == 2
    assert max_weak_sequence_order(q3, 2) == 4
    assert max_weak_sequence_order(q3, 4) == 2
    assert max_weak_sequence_order(c5, 6) == 0


def test_sequence_oracle_matches_brute_force():
    rng = RngStream(91)
    for n in (5, 6, 7):
        g = random_graph(n, 0.5, rng.derive("g", n))
        assert max_weak_sequence_order(g, 1) == brute_clique_number(g)
        for r in (1, 2, 3):
            assert max_weak_sequence_order(g, r) == brute_sequence_order(g, r)


def test_sequence_oracle_guards():
    with pytest.raises(GuardError):
        max_weak_sequence_order(complete_graph(13), 1)
    with pytest.raises(GuardError):
        max_weak_sequence_order(complete_graph(4), 0)


# ---------------------------------------------------------------------------
# presets


def test_load_preset():
    assert load_preset("paper") == MinorConstants(
        xprime_div=400,
        paths=PathsParams(x_frac_div=50, budget_coeff=Fraction(1, 10 ** 9),
                          min_p2n=1600))
    assert load_preset("desk") == MinorConstants(
        xprime_div=4,
        paths=PathsParams(x_frac_div=3, budget_coeff=Fraction(1, 100),
                          min_p2n=30))
    assert (weakseq.CLEANUP_DIV, weakseq.SPLIT_EDGE_DIV,
            weakseq.SPLIT_MINDEG_DIV, weakseq.Z_DENSITY_DIV,
            weakseq.W_DENSITY_DIV) == (8, 32, 32, 64, 32)
    with pytest.raises(GuardError, match="unknown preset 'closet'"):
        load_preset("closet")


def test_paper_preset_cannot_pass_the_second_path_stage():
    """``paths_drc[2]`` runs on Z' and X', 2 ceil(p n / xprime_div)
    vertices, and needs p'^2 n' >= min_p2n with p' <= 1: no host of at most
    MAX_VERTICES vertices has enough, at any p <= 1 (README)."""
    paper = weakseq.PRESETS["paper"]

    def second_stage(pn):  # vertices of paths_drc[2]'s host, at p n = pn
        return 2 * _ceil_frac(Fraction(pn, paper.xprime_div))

    need = paper.paths.min_p2n
    assert (MAX_VERTICES, second_stage(MAX_VERTICES), need) == (16384, 82,
                                                                1600)
    # even at p = 1, the host needs more than 319,600 vertices
    assert second_stage(319_600) < need <= second_stage(319_601)
