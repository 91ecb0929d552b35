"""Acceptance gate: ten checks, one per release criterion, in fixed order.

Every check re-verifies witnesses with independent code paths (direct
counting, exhaustive oracles, from-scratch certificate checks) and pins
its thresholds and frozen values in place.  Each test ends with a single
summary line; the pytest -v verdict for each function is the official
pass/fail line for that criterion.
"""

import dataclasses
import itertools
import json
import time
import warnings
from fractions import Fraction

import pytest

from exlab import bipfree, expcli, lll_embed, removal, rsgraph, setmap, weakseq
from exlab.core import (
    Failure,
    RngStream,
    complete_bipartite,
    complete_graph,
    hypercube,
    random_coloring,
    random_graph,
)


def test_gate_01_small_grid_exhaustive_violations():
    # every 7-point region of the 3x3 grid violates the overlap-2 rule
    t0 = time.perf_counter()
    f = setmap.caro_map(3, 2)
    points = sorted(f.points)
    assert len(points) == 9
    checked = 0
    for Q in itertools.combinations(points, 7):
        vio = setmap.caro_violator(f, Q)
        assert vio is not None
        assert setmap.verify_violation(f, frozenset(Q), vio) == (True, None)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 36
    assert elapsed < 1.0
    print(f"\ngate 1 PASS: 36/36 seven-point regions violate, "
          f"re-verified ({elapsed:.3f} s < 1 s)")


def test_gate_02_sampled_regions_always_violate():
    # |P| = 25 > k^2 n = 24, so the plane-deletion argument must always fire
    t0 = time.perf_counter()
    f = setmap.eh_map(6, 2)
    points = sorted(f.points)
    assert len(points) == 36
    rng = RngStream(202)
    hits = 0
    for i in range(10 ** 4):
        P = rng.sample(points, 25)
        vio = setmap.eh_violator(f, P)
        assert vio is not None
        assert setmap.verify_violation(f, frozenset(P), vio) == (True, None)
        hits += 1
    elapsed = time.perf_counter() - t0
    assert hits == 10 ** 4
    assert elapsed < 30.0
    print(f"\ngate 2 PASS: 10000/10000 sampled regions violate, "
          f"re-verified ({elapsed:.2f} s < 30 s)")


def test_gate_03_four_cycle_free_extraction_floor():
    t0 = time.perf_counter()
    rng = RngStream(33)
    hosts = []
    for i in range(50):
        n = 12 + rng.derive("size", i).randrange(49)
        hosts.append(random_graph(n, 0.5, rng.derive("host", i)))
    hosts.append(complete_bipartite(10, 10))
    worst = None
    for i, G in enumerate(hosts):
        m = len(G.edges())
        # smallest integer c with 4c >= m^(2/3), computed without floats
        floor = 1
        while (4 * floor) ** 3 < m * m:
            floor += 1
        res = bipfree.extract_free(G, 2, rng.derive("extract", i))
        assert res.target_size == floor
        size = len(res.subgraph.edges())
        assert size >= floor
        assert bipfree.count_pattern(res.subgraph, 2) == 0
        assert bipfree.count_pattern(G, 2) <= 2 * m * m
        ratio = size / floor
        worst = ratio if worst is None else min(worst, ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\ngate 3 PASS: 51/51 hosts met the extraction floor "
          f"(worst size/floor {worst:.2f}), counts within 2m^2 "
          f"({elapsed:.2f} s < 60 s)")


def test_gate_04_zarankiewicz_tightness_frozen_value():
    t0 = time.perf_counter()
    inst = bipfree.tight_instance(2, 2, 64)
    assert (inst.graph.n1, inst.graph.n2) == (4, 16)
    assert inst.kst_bound() == 32
    res = bipfree.zarankiewicz_oracle(inst)
    assert res.exact
    assert res.size <= 32
    # frozen by the branch-and-bound run; regression-checked thereafter
    assert res.size == 22
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\ngate 4 PASS: exact optimum 22 <= 32 on the 4x16 host "
          f"({elapsed:.2f} s < 120 s)")


def test_gate_05_multipartite_count_bound():
    rng = RngStream(55)
    checked = 0
    for k in (2, 3):
        inst = bipfree.kpartite_instance(k, 2, 2)
        full = inst.hypergraph
        edges = sorted(tuple(sorted(e)) for e in full.edges)
        for i in range(50):
            sub = rng.derive("sub", k, i)
            keep = sub.random()
            kept = [e for e in edges if sub.random() < keep]
            H = type(full)(full.n, full.k, kept)
            chk = bipfree.kpartite_count_check(H, inst.parts, 2)
            assert chk.passed
            assert chk.bound <= chk.count
            checked += 1
    assert checked == 100
    print("\ngate 5 PASS: 100/100 random sub-hypergraphs keep the "
          "count bound (k = 2 and 3)")


def test_gate_06_resampled_cube_embeddings():
    t0 = time.perf_counter()
    target = lll_embed.neighborhood_hypergraph(hypercube(3))
    for seed in range(50):
        rng = RngStream(6000 + seed)
        host = lll_embed.random_dense_dch(128, 3, Fraction(9, 1000),
                                          rng.derive("host"))
        with warnings.catch_warnings():
            # deletion fraction sits inside the guaranteed regime
            warnings.simplefilter("error")
            res = lll_embed.resample_embed(target, host, rng.derive("embed"))
        assert not isinstance(res, Failure)
        assert res.rounds <= 10 ** 4
        assert len(set(res.mapping)) == target.n
        for e in target.edges:
            assert host.member([res.mapping[v] for v in e])
    mid = time.perf_counter()
    q3 = hypercube(3)
    for seed in range(20):
        rng = RngStream(6100 + seed)
        col = random_coloring(complete_graph(512), 2, rng.derive("col"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = lll_embed.bip_ramsey_pipeline(col, q3, rng.derive("pipe"))
        assert not isinstance(res, Failure)
        assert len(set(res.mapping)) == 8
        for u, v in q3.edges():
            assert col.color_of(res.mapping[u], res.mapping[v]) == res.color
    elapsed = time.perf_counter() - t0
    print(f"\ngate 6 PASS: 50/50 resampled embeddings re-verified "
          f"({mid - t0:.2f} s); 20/20 two-colorings of the 512-clique "
          f"held a one-colored 3-cube ({elapsed:.2f} s total)")


def test_gate_07_weak_sequences_and_clique_minors():
    t0 = time.perf_counter()
    passed = 0
    for seed in range(10):
        rng = RngStream(7000 + seed)
        g = random_graph(2000, 0.5, rng.derive("gen"))
        t = weakseq.regime2_order(2000, g.density(), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = weakseq.weak_sequence_pipeline(g, 4, t, rng.derive("run"))
        if isinstance(w, Failure):
            continue
        assert weakseq.verify_sequence(g, w) == (True, None)
        s = w.stats
        # every accepted stage logs its clause and stays inside the bound
        assert s["filter1_size"] >= s["filter1_floor"]
        assert s["fraction1"] <= s["threshold1"]
        assert s["s_size"] >= s["filter2_floor"]
        assert s["fraction2"] <= s["threshold2"]
        assert min(s["t_parts"]) >= weakseq.seq_params(2000, s["p"], 4,
                                                       t).part_floor
        assert s["t_delta"] <= s["delta_target"]
        passed += 1
    assert passed >= 9
    desk = weakseq.load_preset("desk")
    minors = 0
    for seed in range(10):
        rng = RngStream(7100 + seed)
        g = random_graph(240, 0.7, rng.derive("gen"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = weakseq.minor_pipeline(g, 2, 4, rng.derive("run"),
                                       constants=desk)
        assert not isinstance(m, Failure)
        assert m.size_cap == 16          # 8r with r = 2
        assert m.diameter_cap == 9
        assert weakseq.verify_minor(g, m) == (True, None)
        minors += 1
    elapsed = time.perf_counter() - t0
    print(f"\ngate 7 PASS: sequences on {passed}/10 seeds (>= 9 required) "
          f"with clause logs in bounds; minors on {minors}/10 seeds "
          f"(caps 16 and 9) ({elapsed:.1f} s)")


def test_gate_08_progression_free_graphs_and_falsifier():
    t0 = time.perf_counter()
    tested = (1, 2, 3, 4, 5, 8, 14, 41, 100, 400, 1000, 5000, 10 ** 4,
              10 ** 5)
    for N in tested:
        ap = rsgraph.behrend_set(N)
        assert ap.elements and ap.elements[-1] <= N
        assert rsgraph.find_three_ap(ap.elements) is None
    dec = rsgraph.rs_from_behrend(3000)
    assert rsgraph.verify_rs(dec) == (True, None)
    doubles = 0
    for N in range(15, 65):
        base = rsgraph.rs_from_behrend(N)
        assert rsgraph.verify_rs(base) == (True, None)
        dd = rsgraph.bipartite_double(base.graph, base)
        assert rsgraph.verify_rs(dd) == (True, None)
        doubles += 1
    assert doubles == 50
    g4 = complete_graph(4)
    out = rsgraph.greedy_decompose(g4, 2)
    assert isinstance(out, rsgraph.FalsifyingColoring)
    deg = [0] * 4
    red = set(out.red)
    for u, v in red:
        deg[u] += 1
        deg[v] += 1
    assert max(deg) < out.t              # no red star of order t
    blue = [e for e in g4.edges() if e not in red]
    for e1, e2 in itertools.combinations(blue, 2):
        if set(e1) & set(e2):
            continue
        # a blue matching induced in the host would refute the certificate
        assert any(g4.has_edge(a, b) for a in e1 for b in e2)
    assert rsgraph.verify_falsifying(g4, out.red, out.t, out.n) == (True,
                                                                    None)
    elapsed = time.perf_counter() - t0
    print(f"\ngate 8 PASS: {len(tested)} progression-free sets pass the "
          f"exact oracle up to 10^5; decomposition at 3000 verified; "
          f"50/50 doublings verified; falsifying coloring re-certified "
          f"({elapsed:.1f} s)")


def _mutate_cover(kind: str, cover, rng):
    """One structural defect; every kind must be caught by validation."""
    tris = list(cover.triangles)
    i = rng.randrange(len(tris))
    w, a, b, c = tris[i]
    if kind == "drop":
        tris.pop(i)
    elif kind == "duplicate":
        tris.append(tris[i])
    elif kind == "recolor":
        tris[i] = (w, a, b, (c + 1) % cover.r)
    elif kind == "move_apex":
        tris[i] = ((w + 1) % cover.q, a, b, c)
    elif kind == "out_of_part":
        tris[i] = (w, cover.graph.n, b, c)
    else:
        raise AssertionError(kind)
    return tris


def test_gate_09_cover_census_and_corner_agreement():
    t0 = time.perf_counter()
    rng = RngStream(909)
    # every grid reduction validates as a strict cover
    grids = []
    for i in range(15):
        N = 2 + rng.derive("shape", i).randrange(8)
        r = 2 + rng.derive("colors", i).randrange(2)
        gc = removal.random_grid(N, r, rng.derive("grid", i))
        cover = removal.grid_cover(gc)
        assert cover.strict and len(cover.triangles) == N * N
        grids.append(cover)
    # twenty mutated negatives are all rejected
    kinds = ("drop", "duplicate", "recolor", "move_apex", "out_of_part")
    rejected = 0
    for i in range(20):
        cover = grids[i % len(grids)]
        tris = _mutate_cover(kinds[i % len(kinds)], cover,
                             rng.derive("mutate", i))
        with pytest.raises(ValueError):
            removal.triangle_cover(cover.coloring, cover.parts, tris)
        rejected += 1
    assert rejected == 20
    # pair-step clauses recounted directly on 15x15 two-colored grids
    for i in range(20):
        gc = removal.random_grid(15, 2, RngStream(910).derive("step", i))
        cover = removal.grid_cover(gc)
        col = cover.coloring
        g = col.graph
        n, q = 15, cover.q
        total = 0
        for w in range(q):
            for a in range(q, q + n):
                for b in range(q + n, q + 2 * n):
                    if (g.has_edge(w, a) and g.has_edge(w, b)
                            and g.has_edge(a, b)
                            and col.color_of(w, a) == col.color_of(w, b)
                            == col.color_of(a, b)):
                        total += 1
        sp = removal.sparse_pair_step(cover)
        assert len(sp.v1) == len(sp.v2) == len(set(sp.v1)) == len(set(sp.v2))
        assert len(sp.v1) * 4 * q * 2 >= n * n
        direct = sum(1 for a in sp.v1 for b in sp.v2
                     if col.color_of(a, b) == sp.color)
        assert direct == sp.edges
        assert direct <= 4 * Fraction(total + 1, n ** 3) * n * n
    # exhaustive agreement for every 2-coloring with N <= 3, plus the
    # pigeonhole criterion whenever the census exceeds the edge count
    swept = 0
    for N in (1, 2, 3):
        for bits in range(2 ** (N * N)):
            cells = [[bits >> (x * N + y) & 1 for y in range(N)]
                     for x in range(N)]
            gc = removal.GridColoring(N, 2, cells)
            cover = removal.grid_cover(gc)
            _, total = removal.triangle_census(cover.coloring, cover.parts)
            if total > N * N:
                assert removal.diamond_find(cover.coloring,
                                            cover.parts) is not None
            oracle = removal.corner_oracle(gc)
            corner = removal.grid_pipeline(gc)
            if corner is None:
                assert oracle == ()
            else:
                assert corner in oracle
            swept += 1
    assert swept == 2 + 16 + 512
    # larger random instances: corner outputs always sit in the oracle list
    for i in range(15):
        N = 4 + rng.derive("big-shape", i).randrange(5)
        r = 2 + rng.derive("big-colors", i).randrange(2)
        gc = removal.random_grid(N, r, rng.derive("big", i))
        cover = removal.grid_cover(gc)
        _, total = removal.triangle_census(cover.coloring, cover.parts)
        if total > N * N:
            assert removal.diamond_find(cover.coloring,
                                        cover.parts) is not None
        corner = removal.grid_pipeline(gc)
        oracle = removal.corner_oracle(gc)
        assert (corner is None and oracle == ()) or corner in oracle
    elapsed = time.perf_counter() - t0
    print(f"\ngate 9 PASS: 15 reductions accepted, 20/20 negatives "
          f"rejected, 20 pair-steps recounted, 530 colorings swept "
          f"exhaustively, corners always in the oracle ({elapsed:.1f} s)")


def test_gate_10_record_replay_byte_exact(tmp_path):
    t0 = time.perf_counter()
    specs = [
        expcli.ExperimentSpec("setmap", "violate", {"k": 2, "n": 6},
                              seed=7, trials=20),
        expcli.ExperimentSpec("bipfree", "extract", {"n": 40, "p": 0.5},
                              seed=3, trials=5),
        expcli.ExperimentSpec("removal", "iterate", {"N": 6, "r": 2},
                              seed=1, trials=5),
        expcli.ExperimentSpec("rsgraph", "decompose", {"N": 4, "n": 2},
                              seed=0, trials=3),
    ]
    for i, spec in enumerate(specs):
        path = tmp_path / f"record{i}.json"
        spec = dataclasses.replace(spec, out=str(path))
        first = expcli.run(spec)
        second = expcli.run(spec)
        assert (json.dumps(first.trials, sort_keys=True)
                == json.dumps(second.trials, sort_keys=True))
        match, _ = expcli.replay(path)
        assert match
    elapsed = time.perf_counter() - t0
    print(f"\ngate 10 PASS: 4/4 records replay byte-exactly across "
          f"consecutive runs ({elapsed:.2f} s)")
