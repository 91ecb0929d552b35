"""Every witness verifier against every single-element mutation.

Each row of ``ROWS`` names a witness type and gives a builder, the type's
verifier and a mutator.  The builder returns ``(instance, witness)`` from a
construction run on a small fixture or on the parameters of a pinned record
corpus spec; the verifier, called as ``verify(*instance, witness)``, must
accept it.  The mutator yields ``(instance, witness, reason)`` for each
single-element mutation: one member, edge, field or host edge changed.  The
verifier must reject every one with exactly that reason, also under
``python -O``.  Gate 9 keeps its own triangle-cover mutator.
"""

import dataclasses
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from exlab import bipfree, lll_embed, removal, rsgraph, setmap, weakseq
from exlab.core import (BipartiteGraph, EdgeColoring, Graph, RngStream,
                        complete_graph, hypercube, iter_bits, random_coloring,
                        random_graph)

# --- setmap: violations -----------------------------------------------------


def build_eh_violation():
    # the parameters of the "setmap-violate-k2-n6" corpus spec
    f = setmap.eh_map(6, 2)
    region = frozenset(RngStream(7).derive("region").sample(sorted(f.points),
                                                            25))
    return (f, region), setmap.eh_violator(f, region)


def build_caro_violation():
    f = setmap.caro_map(4, 2)
    region = frozenset(RngStream(7).derive("region").sample(sorted(f.points),
                                                            14))
    return (f, region), setmap.caro_violator(f, region)


def mutate_violation(instance, vio):
    f, region = instance
    off = min(p for p in f.points if p not in region)
    for x in vio.X:
        X = vio.X - {x} | {off}
        yield instance, dataclasses.replace(vio, X=X), ("argument", off)
    image = f.rule(vio.X)
    if f.kind == "eh":
        for q in region - image:
            yield instance, dataclasses.replace(vio, witness=q), ("image",)
        shown = {vio.witness}
    else:
        for a in image:
            for b in set(f.points) - image:
                wrong = image - {a} | {b}
                yield instance, dataclasses.replace(vio, witness=wrong), \
                    ("image",)
        shown = image
    for p in shown:
        # the caro image may share a point with X, which the X check meets
        reason = ("argument", p) if p in vio.X else ("outside", p)
        yield (f, region - {p}), vio, reason


# --- setmap: free sets -----------------------------------------------------


def build_free_set_exact():
    # the parameters of perfbench cli-mix's oracle job: eh_map(4, 2)
    f = setmap.eh_map(4, 2)
    return (f, "disjoint"), setmap.free_set_oracle(f, "disjoint")


def build_free_set_bracket():
    f = setmap.caro_map(3, 2)
    return (f, "not_subset"), setmap.free_set_oracle(f, "not_subset", 5)


def first_rule_violation(f, mode, S):
    for X in itertools.combinations(sorted(S), f.k):
        image = f.rule(X)
        if (image <= S) if mode == "not_subset" else (image & S):
            return X
    return None


def mutate_free_set(instance, res):
    f, mode = instance
    W = res.witness
    off = (0,) * len(f.points[0])
    yield instance, dataclasses.replace(res, witness=W | {off},
                                        size=res.size + 1), ("ground", off)
    for size in (res.size - 1, res.size + 1):
        yield instance, dataclasses.replace(res, size=size), \
            ("size", res.size)
    for q in sorted(set(f.points) - W):
        X = first_rule_violation(f, mode, W | {q})
        # a maximum free set takes no further point
        assert X is not None or not res.exact
        if X is not None:
            yield instance, dataclasses.replace(
                res, witness=W | {q}, size=res.size + 1), ("violation", X)
    for upper in (res.size - 1, len(f.points) + 1):
        yield instance, dataclasses.replace(res, upper=upper), \
            ("bracket", upper)
    wrong = dataclasses.replace(res, upper=res.size + 1) if res.exact \
        else dataclasses.replace(res, exact=True)
    yield instance, wrong, ("exact", wrong.upper)


# --- weakseq: sequences, minors, K_{t,t} ---------------------------------


def build_sequence():
    # G(300, 1/2) with r = t = 3
    g = random_graph(300, 0.5, RngStream(1).derive("host"))
    with pytest.warns(RuntimeWarning):
        w = weakseq.weak_sequence_pipeline(g, 3, 3, RngStream(1).derive("run"))
    return (g,), w


def mutate_sequence(instance, w):
    tags = [("S", i) for i in range(w.t)] + [("T", i) for i in range(w.t)]
    sets = {("S", i): w.s_sets[i] for i in range(w.t)}
    sets.update({("T", i): w.t_sets[i] for i in range(w.t)})

    def put(tag, members):
        field = "s_sets" if tag[0] == "S" else "t_sets"
        family = list(getattr(w, field))
        family[tag[1]] = frozenset(members)
        return dataclasses.replace(w, **{field: tuple(family)})

    for tag in tags:
        for v in sets[tag]:
            yield instance, put(tag, sets[tag] - {v}), ("size", tag)
    for a, b in itertools.permutations(tags, 2):
        moved = sets[a] - {min(sets[a])} | {min(sets[b])}
        first, second = sorted((a, b), key=tags.index)
        yield instance, put(a, moved), ("overlap", first, second)
    for i in range(w.t):
        yield instance, dataclasses.replace(
            w, s_sets=w.s_sets[:i] + w.s_sets[i + 1:],
            t_sets=w.t_sets[:i] + w.t_sets[i + 1:]), ("order", w.t - 1)


# branch set 0 = {0, 4} needs both members: 0 meets sets 1 and 2, 4 meets 3
MINOR_EDGES = [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)]
MINOR_PART = {0: 0, 4: 0, 1: 1, 2: 2, 3: 3}


def build_minor():
    model = weakseq.MinorModel((frozenset({0, 4}), frozenset({1}),
                                frozenset({2}), frozenset({3})), 2, 1)
    return (Graph(5, MINOR_EDGES),), model


def mutate_minor(instance, model):
    sets = list(model.branch_sets)

    def put(i, members):
        return dataclasses.replace(model, branch_sets=tuple(
            sets[:i] + [frozenset(members)] + sets[i + 1:]))

    for e in MINOR_EDGES:
        g = Graph(5, [f for f in MINOR_EDGES if f != e])
        a, b = sorted(MINOR_PART[v] for v in e)
        yield (g,), model, ("disconnected", 0) if a == b else ("pair", a, b)
    yield instance, put(0, {4}), ("pair", 0, 1)
    yield instance, put(0, {0}), ("pair", 0, 3)
    for i in (1, 2, 3):
        yield instance, put(i, ()), ("empty", i)
    for i, j in itertools.permutations(range(4), 2):
        for v in sets[j]:
            reason = ("size", 0) if i == 0 else ("overlap", min(i, j),
                                                 max(i, j))
            yield instance, put(i, sets[i] | {v}), reason
    yield instance, dataclasses.replace(model, size_cap=1), ("size", 0)
    yield instance, dataclasses.replace(model, diameter_cap=0), \
        ("diameter", 0)


# K_{2,2} on {0, 1} x {3, 4}; vertex 2 misses 4 and vertex 5 misses 0
KTT_HOST = BipartiteGraph(3, 3, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3),
                                 (2, 5)])
KTT_MISSING = {2: ("missing", (2, 4)), 5: ("missing", (0, 5))}


def build_ktt():
    return (KTT_HOST, 2), weakseq.find_ktt(KTT_HOST, 2)


def mutate_ktt(instance, witness):
    T, t = instance
    for i, side in enumerate(witness):
        part = T.v1 if i == 0 else T.v2
        for j in range(t):
            put = list(witness)
            put[i] = side[:j] + side[j + 1:]
            yield instance, tuple(put), ("side", i)
            for w in range(T.n):
                if w == side[j]:
                    continue
                put[i] = side[:j] + (w,) + side[j + 1:]
                reason = KTT_MISSING[w] if w in part and w not in side \
                    else ("side", i)
                yield instance, tuple(put), reason


# --- rsgraph: progression-free sets, decompositions, falsifying colorings --


def build_ap_free():
    # (5, 11, 13, 29, 31, 37)
    return (), rsgraph.behrend_set(41)


def first_three_ap(elements):
    """The progression x < y < z of the set with the least (x, z), by brute
    force over all triples."""
    return min(((x, y, z) for x, y, z in itertools.combinations(elements, 3)
                if x + z == 2 * y), key=lambda t: (t[0], t[2]), default=None)


def mutate_ap_free(instance, ap):
    for i in range(len(ap.elements)):
        for v in range(ap.N + 2):
            if v in ap.elements:
                continue
            elements = tuple(sorted(ap.elements[:i] + (v,)
                                    + ap.elements[i + 1:]))
            hit = first_three_ap(elements)
            reason = ("range", v) if not 1 <= v <= ap.N \
                else ("three_ap", hit) if hit else None
            if reason:
                yield instance, dataclasses.replace(ap, elements=elements), \
                    reason


def build_rs():
    # the parameters of the "rsgraph-construct-n100" corpus spec
    return (), rsgraph.rs_from_behrend(100)


def mutate_rs(instance, dec):
    mats = list(dec.matchings)

    def put(i, mt):
        return dataclasses.replace(dec, matchings=tuple(
            mats[:i] + [tuple(mt)] + mats[i + 1:]))

    for i, mt in enumerate(mats):
        other = mats[(i + 1) % len(mats)][0]
        for j in range(len(mt)):
            yield instance, put(i, mt[:j] + mt[j + 1:]), ("size", max(i, 1))
            yield instance, put(i, mt[:j] + ((0, 1),) + mt[j + 1:]), \
                ("foreign_edge", i, (0, 1))
            yield instance, put(i, mt[:j] + (other,) + mt[j + 1:]), \
                ("overlap", min(i, (i + 1) % len(mats)),
                 max(i, (i + 1) % len(mats)))
        yield instance, dataclasses.replace(
            dec, matchings=tuple(mats[:i] + mats[i + 1:])), \
            ("not_spanning", len(mt))
    # a host edge between the first two edges of matching 0
    (a, _), (_, b) = mats[0][:2]
    g = dec.graph
    host = BipartiteGraph(g.n1, g.n2, [*g.edges(), (a, b)])
    yield instance, dataclasses.replace(dec, graph=host), \
        ("not_induced", 0, (a, b))
    # that host edge in place of the second edge: matching 0 shares vertex a
    yield instance, dataclasses.replace(dec, graph=host, matchings=tuple(
        [mats[0][:1] + ((a, b),) + mats[0][2:]] + mats[1:])), \
        ("not_induced", 0, (a, a))
    # one-way rows, which only the unchecked constructor builds: a bit from
    # the second edge's v to the first edge's u, and the first edge kept in
    # u's row alone; neither is a pair the scan names
    (u1, v1), (_, v2) = mats[0][:2]
    for row in (v2, v1):
        rows = list(g.adj)
        rows[row] ^= 1 << u1
        host = BipartiteGraph._from_parts(rows, (g.mask(1), g.mask(2)))
        for spanning in (True, False):
            yield instance, dataclasses.replace(
                dec, graph=host, spanning=spanning), ("one_way", 0)


C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
# each red edge of C_6 toggled: a new red edge gives a red K_{1,2}, a
# removed one leaves an induced blue M_2
FALSIFYING_TOGGLES = {
    (0, 1): ("blue_matching", ((0, 1), (3, 4))),
    (0, 5): ("red_star", 0),
    (1, 2): ("red_star", 1),
    (2, 3): ("blue_matching", ((0, 5), (2, 3))),
    (3, 4): ("red_star", 3),
    (4, 5): ("blue_matching", ((1, 2), (4, 5))),
}


def build_falsifying():
    return (C6,), ((0, 1), (2, 3), (4, 5))


def mutate_falsifying(instance, red):
    for e, reason in FALSIFYING_TOGGLES.items():
        yield instance, tuple(sorted(set(red) ^ {e})), reason


def check_falsifying(g, red):
    return rsgraph.verify_falsifying(g, red, 2, 2)


# --- lll_embed: embeddings and monochromatic copies ------------------------


def build_embedding():
    H = lll_embed.neighborhood_hypergraph(hypercube(3))
    G = lll_embed.random_dense_dch(64, 3, Fraction(1, 1000),
                                   RngStream(1).derive("host"))
    with pytest.warns(RuntimeWarning):
        emb = lll_embed.resample_embed(H, G, RngStream(1).derive("embed"))
    return (H, G), emb


def mutate_mapping(mapping, N: int):
    """(mapping, reason) for each image moved onto another or off range(N)."""
    for v in range(len(mapping)):
        for u in range(len(mapping)):
            if u != v:
                moved = mapping[:v] + (mapping[u],) + mapping[v + 1:]
                yield moved, ("collision", min(u, v), max(u, v))
        for x in (-1, N):
            yield mapping[:v] + (x,) + mapping[v + 1:], ("range", v)


def mutate_embedding(instance, emb):
    H, G = instance
    for mapping, reason in mutate_mapping(emb.mapping, G.N):
        yield instance, dataclasses.replace(emb, mapping=mapping), reason
    for e in H.edges:
        image = sorted(emb.mapping[v] for v in e)
        host = lll_embed.DownClosedHypergraph(G.N, G.k, G.deleted_ranks | {
            lll_embed._rank_combination(image, G.N, G.k)})
        yield (H, host), emb, ("non_member", tuple(sorted(e)))


def build_copy():
    col = random_coloring(complete_graph(10), 2, RngStream(3))
    H = hypercube(2)
    res = lll_embed.bip_ramsey_pipeline(col, H, RngStream(3).derive("pipe"))
    return (col, H), res


def mutate_copy(instance, res):
    col, H = instance
    for mapping, reason in mutate_mapping(res.mapping, col.graph.n):
        yield instance, dataclasses.replace(res, mapping=mapping), reason
    for u, v in H.edges():
        image = {res.mapping[u], res.mapping[v]}
        recolored = EdgeColoring(
            col.graph, {(a, b): col.color_of(a, b) ^ ({a, b} == image)
                        for a, b in col.graph.edges()}, 2)
        yield (recolored, H), res, ("color", (u, v))
    yield instance, dataclasses.replace(res, color=1 - res.color), \
        ("color", H.edges()[0])


# --- bipfree: pattern-free subgraphs and Zarankiewicz witnesses -----------

# C_6 is K_33 minus a perfect matching; a matching edge added back closes
# two 4-cycles
K33 = BipartiteGraph(3, 3, [(u, v) for u in range(3) for v in range(3, 6)])
C6_IN_K33 = [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]


def build_free_graph():
    return (K33, 2), Graph(6, C6_IN_K33)


def mutate_vertex_count(instance, H):
    """H on two more vertices, joined by an edge outside G's vertex set,
    and H on one vertex less."""
    n = H.n
    yield instance, Graph(n + 2, H.edges() + [(n, n + 1)]), ("vertices", n + 2)
    yield instance, Graph(n - 1, [e for e in H.edges() if n - 1 not in e]), \
        ("vertices", n - 1)


def mutate_free_graph(instance, H):
    G, _ = instance
    for e in itertools.combinations(range(6), 2):
        if not H.has_edge(*e):
            reason = ("copies", 2) if G.has_edge(*e) else ("not_subgraph", e)
            yield instance, Graph(6, H.edges() + [e]), reason
    yield from mutate_vertex_count(instance, H)


# K_33 less the edge (0, 3) is K_{3,3}-free; putting it back makes the one
# copy.  Vertices 0 and 3 fall below degree r = 3 in the witness, so the
# verifier's count leaves their rows out until the edge returns.
def build_free_graph_r3():
    return (K33, 3), Graph(6, [e for e in K33.edges() if e != (0, 3)])


def mutate_free_graph_r3(instance, H):
    G, _ = instance
    for e in itertools.combinations(range(6), 2):
        if not H.has_edge(*e):
            reason = ("copies", 1) if G.has_edge(*e) else ("not_subgraph", e)
            yield instance, Graph(6, H.edges() + [e]), reason
    yield from mutate_vertex_count(instance, H)


def krs_copies(rows, a: int, b: int) -> int:
    """Copies of K_{a,b} with the a-side in U and the b-side among the V
    rows, counted over b-sets of rows."""
    total = 0
    for chosen in itertools.combinations(rows, b):
        common = -1
        for row in chosen:
            common &= row
        total += comb(common.bit_count(), a)
    return total


def build_zarankiewicz_tight():
    # the "bipfree-tight-m64" corpus spec: K_{4,16}, r = s = 2
    inst = bipfree.tight_instance(2, 2, 64)
    return (inst,), bipfree.zarankiewicz_oracle(inst)


def build_zarankiewicz_r2_s3():
    # K_{3,9}, where both orientations of K_{2,3} are forbidden
    inst = bipfree.tight_instance(2, 3, 27)
    return (inst,), bipfree.zarankiewicz_oracle(inst)


def mutate_zarankiewicz(instance, res):
    (inst,) = instance
    host = inst.graph
    # the maximum grows by no edge: each added edge of U x V closes a copy
    for i, row in enumerate(res.rows):
        for u in range(host.n1):
            if row >> u & 1:
                continue
            rows = res.rows[:i] + (row | 1 << u,) + res.rows[i + 1:]
            grown = dataclasses.replace(res, rows=rows, size=res.size + 1)
            yield instance, grown, ("pattern", krs_copies(rows, inst.r, inst.s),
                                    krs_copies(rows, inst.s, inst.r))
    # a row past U, and a host that lacks one edge of the witness
    edges = [(u, v) for v in host.v2 for u in iter_bits(host.adj[v])]
    for i, (row, v) in enumerate(zip(res.rows, host.v2)):
        rows = res.rows[:i] + (row | 1 << host.n1,) + res.rows[i + 1:]
        yield instance, dataclasses.replace(res, rows=rows), \
            ("not_subgraph", i)
        if row:
            cut = (row & -row).bit_length() - 1
            sparse = BipartiteGraph(host.n1, host.n2,
                                    [e for e in edges if e != (cut, v)])
            yield (dataclasses.replace(inst, graph=sparse),), res, \
                ("not_subgraph", i)
    for size in (res.size - 1, res.size + 1):
        yield instance, dataclasses.replace(res, size=size), \
            ("size", res.size)


# --- removal: corners -------------------------------------------------------

# (1, 1), (2, 1), (1, 2) have colour 0, every other cell colour 1
CORNER_GRID = removal.GridColoring(3, 2, ((0, 0, 1), (0, 1, 1), (1, 1, 1)))
CORNER_MUTATIONS = (
    ({"d": 0}, ("offset",)),
    ({"d": 2}, ("color", (3, 1))),
    ({"d": 3}, ("off_grid", (4, 1))),
    ({"d": -1}, ("off_grid", (0, 1))),
    ({"d": -2}, ("off_grid", (-1, 1))),
    ({"x": 0}, ("off_grid", (0, 1))),
    ({"x": 2}, ("color", (3, 1))),
    ({"x": 3}, ("color", (3, 1))),
    ({"y": 0}, ("off_grid", (1, 0))),
    ({"y": 2}, ("color", (2, 2))),
    ({"y": 3}, ("color", (1, 3))),
    ({"color": 1}, ("color", (1, 1))),
)


def build_corner():
    return (CORNER_GRID,), removal.Corner(1, 1, 1, 0)


def mutate_corner(instance, corner):
    for change, reason in CORNER_MUTATIONS:
        yield instance, dataclasses.replace(corner, **change), reason


# name -> (builder, verifier, mutator)
ROWS = {
    "violation-eh": (build_eh_violation, setmap.verify_violation,
                     mutate_violation),
    "violation-caro": (build_caro_violation, setmap.verify_violation,
                       mutate_violation),
    "free-set-exact": (build_free_set_exact, setmap.verify_free_set,
                       mutate_free_set),
    "free-set-bracket": (build_free_set_bracket, setmap.verify_free_set,
                         mutate_free_set),
    "sequence": (build_sequence, weakseq.verify_sequence, mutate_sequence),
    "minor": (build_minor, weakseq.verify_minor, mutate_minor),
    "ktt": (build_ktt, weakseq.verify_ktt, mutate_ktt),
    "ap-free-set": (build_ap_free, rsgraph.verify_ap_free, mutate_ap_free),
    "rs-decomposition": (build_rs, rsgraph.verify_rs, mutate_rs),
    "falsifying-coloring": (build_falsifying, check_falsifying,
                            mutate_falsifying),
    "embedding": (build_embedding, lll_embed.verify_embedding,
                  mutate_embedding),
    "copy": (build_copy, lll_embed.verify_copy, mutate_copy),
    "free-subgraph": (build_free_graph, bipfree.verify_free_subgraph,
                      mutate_free_graph),
    "free-subgraph-r3": (build_free_graph_r3, bipfree.verify_free_subgraph,
                         mutate_free_graph_r3),
    "zarankiewicz-tight": (build_zarankiewicz_tight,
                           bipfree.verify_zarankiewicz, mutate_zarankiewicz),
    "zarankiewicz-r2-s3": (build_zarankiewicz_r2_s3,
                           bipfree.verify_zarankiewicz, mutate_zarankiewicz),
    "corner": (build_corner, removal.verify_corner, mutate_corner),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_verifier_rejects_every_single_element_mutation(name):
    build, verify, mutate = ROWS[name]
    instance, witness = build()
    assert verify(*instance, witness) == (True, None)
    mutations = list(mutate(instance, witness))
    assert mutations
    for mutant_instance, mutant, reason in mutations:
        assert verify(*mutant_instance, mutant) == (False, reason), reason


# Under python -O, which strips assert statements: every row of ROWS, and
# each construction with its verifier patched to reject, which must raise.
_REJECTING_VERIFIERS = """
import sys, warnings
from fractions import Fraction
from exlab import bipfree, lll_embed, removal, rsgraph, setmap, weakseq
from exlab.core import (BipartiteGraph, RngStream, complete_graph, hypercube,
                        random_coloring, random_graph)
import test_verifiers
for name, (build, verify, mutate) in sorted(test_verifiers.ROWS.items()):
    instance, witness = build()
    print(sys.flags.optimize, name,
          verify(*instance, witness) == (True, None) and all(
              verify(*inst, bad) == (False, reason)
              for inst, bad, reason in mutate(instance, witness)))
warnings.simplefilter("ignore", RuntimeWarning)
grid = removal.GridColoring(3, 2, ((0, 0, 1), (0, 1, 1), (1, 1, 1)))
eh = setmap.eh_map(3, 2)
cases = [
    (setmap, "verify_violation", lambda: setmap.eh_violator(eh, eh.points)),
    (setmap, "verify_free_set", lambda: setmap.free_set_oracle(eh)),
    (weakseq, "verify_ktt", lambda: weakseq.find_ktt(
        BipartiteGraph(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)]), 2)),
    (lll_embed, "verify_embedding", lambda: lll_embed.resample_embed(
        lll_embed.neighborhood_hypergraph(hypercube(2)),
        lll_embed.random_dense_dch(32, 3, Fraction(0), RngStream(1)),
        RngStream(2))),
    (lll_embed, "verify_copy", lambda: lll_embed.bip_ramsey_pipeline(
        random_coloring(complete_graph(8), 2, RngStream(3)), hypercube(2),
        RngStream(4))),
    (bipfree, "verify_free_subgraph", lambda: bipfree.extract_free(
        random_graph(12, 0.7, RngStream(5)), 2, RngStream(6))),
    (bipfree, "verify_zarankiewicz", lambda: bipfree.zarankiewicz_oracle(
        bipfree.tight_instance(2, 2, 8))),
    (removal, "verify_corner", lambda: removal.grid_pipeline(grid)),
    (rsgraph, "verify_ap_free", lambda: rsgraph.behrend_set(41)),
]
for module, name, construct in cases:
    setattr(module, name, lambda *args, **kwargs: (False, ("patched",)))
    try:
        construct()
    except AssertionError as exc:
        print(sys.flags.optimize, name, "raised", exc)
    else:
        print(sys.flags.optimize, name, "returned")
"""


def test_rejecting_verifiers_raise_under_optimize_flag():
    paths = (str(Path(weakseq.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*paths, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", _REJECTING_VERIFIERS],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=60)
    lines = out.stdout.splitlines()
    assert lines[:len(ROWS)] == [f"1 {name} True" for name in sorted(ROWS)]
    lines = lines[len(ROWS):]
    assert len(lines) == 9, out.stdout + out.stderr
    for line in lines:
        assert line.split()[0] == "1" and line.split()[2] == "raised" \
            and "patched" in line, line
