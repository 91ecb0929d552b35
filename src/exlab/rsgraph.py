"""Progression-free sets, induced-matching decompositions, and arrowing checks.

Pipeline: a 3-AP-free subset of {1..N} (digit-shell construction) yields a
bipartite graph that decomposes into many pairwise disjoint induced matchings;
doubling, chunk splitting, and greedy extraction transform such decompositions,
and arrow_check decides whether every red/blue edge coloring of a host leaves
a red star K_{1,t} or a blue induced matching M_n.

Every progression-free set and decomposition is re-verified before it is
returned, and every falsifying coloring is re-checked by the independent
degree-scan / exact-search pair.  Failed verification of a constructed object
raises AssertionError; misuse raises GuardError; search-budget exhaustion in
greedy extraction returns a Failure.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .core import (
    BipartiteGraph,
    Failure,
    Graph,
    GuardError,
    _contiguous_parts,
    iter_bits,
    verified,
)

# Resource envelopes: the 3-AP oracle is quadratic, decomposition checks cost
# a few row ANDs per matching edge, and the exhaustive arrow scan is
# exponential.
BEHREND_MAX_N = 10 ** 6
ENUM_BUDGET = 4 * 10 ** 6
RS_MAX_N = 2 * 10 ** 4
ARROW_EDGE_CAP = 24
DECOMPOSE_VERTEX_CAP = 40
SEARCH_BUDGET = 10 ** 6


@dataclass(frozen=True)
class ApFreeSet:
    """Subset of {1..N} with no x, y, z (not all equal) satisfying x + z = 2y."""

    N: int
    elements: tuple
    stats: Optional[dict] = None


@dataclass(frozen=True)
class RsDecomposition:
    """Pairwise edge-disjoint induced matchings of equal size inside a graph.

    Each matching is a sorted tuple of canonical (u, v) edges.  When spanning
    is set the matchings partition the whole edge set of the graph.
    """

    graph: object
    matchings: tuple
    spanning: bool
    stats: Optional[dict] = None

    @property
    def n(self) -> int:
        """Common matching size."""
        return len(self.matchings[0]) if self.matchings else 0

    @property
    def t(self) -> int:
        """Number of matchings."""
        return len(self.matchings)


@dataclass(frozen=True)
class FalsifyingColoring:
    """Red/blue edge coloring with no red K_{1,t} and no blue induced M_n.

    red lists the red edges; every other edge of the host is blue.  The blue
    condition is the strong one: no n blue edges form a matching that is
    induced in the host graph itself.
    """

    red: tuple
    t: int
    n: int
    stats: Optional[dict] = None


@dataclass(frozen=True)
class ArrowInstance:
    """Outcome of an arrowing check for the target pair (K_{1,t}, M_n).

    verdict is "arrows", "falsified", or "unknown"; falsified instances carry
    the re-verified red edge set of a coloring avoiding both targets.
    """

    graph: object
    t: int
    n: int
    verdict: str
    red: Optional[tuple] = None
    stats: Optional[dict] = None


def find_three_ap(elements):
    """First 3-term arithmetic progression (x, y, z) in the set, else None.

    Quadratic scan over pairs x < z with a hash lookup for the midpoint.
    """
    elems = sorted(set(elements))
    have = set(elems)
    k = len(elems)
    for i in range(k):
        x = elems[i]
        for j in range(i + 1, k):
            z = elems[j]
            if (x + z) & 1:
                continue
            mid = (x + z) // 2
            if mid in have:
                return (x, mid, z)
    return None


def behrend_set_guard(N: int) -> None:
    """GuardError unless 1 <= N <= BEHREND_MAX_N."""
    if not 1 <= N <= BEHREND_MAX_N:
        raise GuardError(f"N={N} outside [1, {BEHREND_MAX_N}]")


def behrend_set(N: int) -> ApFreeSet:
    """Large 3-AP-free subset of {1..N} via the digit-shell construction.

    Vectors in {0..d-1}^j with a common squared Euclidean norm are mapped by
    base-(2d-1) evaluation; digit sums never carry, so an arithmetic
    progression in the image forces three vectors on one sphere with one the
    midpoint of the others, which is impossible.  (d, j) is grid-searched to
    maximize the output size, with per-pair enumeration capped at ENUM_BUDGET
    vectors and shells that cannot beat the incumbent skipped via the
    shell-size bound d^(j-1).  The output is certified progression-free by
    the exact quadratic oracle at every N.
    """
    behrend_set_guard(N)
    best = tuple(range(1, min(N, 2) + 1))
    meta = {"d": None, "j": None, "shell": None}
    cap = 2 * N - 1
    d = 2
    while (2 * d - 1) ** 2 <= cap:
        q = 2 * d - 1
        jmax = 2
        while q ** (jmax + 1) <= cap:
            jmax += 1
        for j in range(jmax, 1, -1):
            if d ** (j - 1) <= len(best):
                break
            if d ** j > ENUM_BUDGET:
                continue
            counts = {}
            for vec in product(range(d), repeat=j):
                norm = sum(a * a for a in vec)
                counts[norm] = counts.get(norm, 0) + 1
            top = max(counts.values())
            if top <= len(best):
                continue
            shell = min(norm for norm, c in counts.items() if c == top)
            powers = [q ** i for i in range(j)]
            vals = [1 + sum(a * p for a, p in zip(vec, powers))
                    for vec in product(range(d), repeat=j)
                    if sum(a * a for a in vec) == shell]
            best = tuple(sorted(vals))
            meta = {"d": d, "j": j, "shell": shell}
        d += 1
    ap = ApFreeSet(N=N, elements=best, stats={**meta, "check": "exact"})
    return verified(verify_ap_free, ap)


def verify_ap_free(ap: ApFreeSet):
    """(True, None), or (False, ("range", x)) for the least element outside
    {1..N}, or (False, ("three_ap", (x, y, z))) for the first progression
    of ``find_three_ap``; ValueError unless the elements strictly increase."""
    elems = ap.elements
    if any(a >= b for a, b in zip(elems, elems[1:])):
        raise ValueError("elements do not strictly increase")
    for x in elems:
        if not 1 <= x <= ap.N:
            return False, ("range", x)
    hit = find_three_ap(elems)
    return (True, None) if hit is None else (False, ("three_ap", hit))


def verify_rs(dec: RsDecomposition):
    """Re-check every decomposition invariant from scratch.

    Returns (True, None) or (False, descriptor) with descriptor one of
    ("size", i), ("foreign_edge", i, edge), ("overlap", i, j),
    ("not_induced", i, (a, b)) where (a, b) is a shared vertex or a host edge
    joining two matching edges, ("one_way", i) and ("not_spanning",
    missing_edge_count).  A matching is induced when its vertex mask
    ``span`` has 2|M| bits and each edge (u, v) has adj[u] & span == 1 << v
    and adj[v] & span == 1 << u; that mask test decides, and only for a
    matching that fails it does the pairwise scan over its edges run, to
    name the first offending pair.  The scan reads one row per pair, so a
    failing matching where it names none has a one-way row bit or a loop.
    Malformed input (bad vertex ids, non-canonical or duplicated edges,
    empty lists) raises ValueError.
    """
    g = dec.graph
    mats = dec.matchings
    if not mats:
        raise ValueError("decomposition has no matchings")
    for i, mt in enumerate(mats):
        if not mt:
            raise ValueError(f"matching {i} is empty")
        seen = set()
        for e in mt:
            u, v = e
            if not (0 <= u < v < g.n):
                raise ValueError(f"matching {i}: edge {e} not canonical")
            if e in seen:
                raise ValueError(f"matching {i}: duplicate edge {e}")
            seen.add(e)
    base = len(mats[0])
    for i, mt in enumerate(mats):
        if len(mt) != base:
            return False, ("size", i)
    owner = {}
    for i, mt in enumerate(mats):
        for e in mt:
            u, v = e
            if not g.has_edge(u, v):
                return False, ("foreign_edge", i, e)
            if e in owner:
                return False, ("overlap", owner[e], i)
            owner[e] = i
    adj = g.adj
    for i, mt in enumerate(mats):
        span = 0
        for u, v in mt:
            span |= 1 << u | 1 << v
        if span.bit_count() == 2 * len(mt) and all(
                adj[u] & span == 1 << v and adj[v] & span == 1 << u
                for u, v in mt):
            continue
        # the mask test decided; the pairwise scan only names the first pair
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
        return False, ("one_way", i)
    if dec.spanning:
        missing = g.m - len(owner)
        if missing:
            return False, ("not_spanning", missing)
    return True, None


def rs_from_behrend_guard(N: int, chunk: Optional[int] = None) -> None:
    """GuardError unless 15 <= N <= RS_MAX_N and chunk, when given, is at
    least 1; its upper bound, the progression-free set's size, is known
    only once the set is built."""
    if N < 15:
        raise GuardError(f"N={N} below minimum 15")
    if N > RS_MAX_N:
        raise GuardError(f"N={N} above envelope {RS_MAX_N}")
    if chunk is not None and chunk < 1:
        raise GuardError(f"chunk={chunk} below 1")


def _behrend_offsets(N: int):
    """N' = N // 3 and the offset set S in {1..2N'/5} of rs_from_behrend."""
    half = N // 3
    return half, behrend_set(max(1, 2 * half // 5))


def rs_from_behrend(N: int, chunk: Optional[int] = None) -> RsDecomposition:
    """Bipartite graph on <= N vertices decomposed into induced matchings.

    Parts {1..N'} and {1..2N'} with N' = N // 3; for each s in a 3-AP-free
    set S subset of {1..2N'/5} the pairs (x, x + 2s) are edges, and the
    matching indexed by center c collects {(c - s, c + s) : s in S}.  A host
    edge joining two edges of one matching would force s + s' = 2s'' inside
    S, a 3-term progression, so every matching is induced; full-size
    matchings exist for every center c in (max S, N'], giving at least N'/5
    of them.  When chunk is given each matching is split into consecutive
    induced sub-matchings of that size; a nonzero remainder is dropped and
    clears the spanning flag.  The decomposition is re-verified before it is
    returned (AssertionError on failure: an implementation bug, not an input
    condition).
    """
    rs_from_behrend_guard(N, chunk)
    half, ap = _behrend_offsets(N)
    diffs = ap.elements
    top = diffs[-1]
    size = len(diffs)
    n1, n2 = half, 2 * half
    rows = [0] * (n1 + n2)
    mats = []
    for c in range(top + 1, half + 1):
        mt = []
        for s in diffs:
            u = c - s - 1
            v = n1 + (c + s) - 1
            mt.append((u, v))
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        mt.sort()
        mats.append(tuple(mt))
    graph = BipartiteGraph._from_parts(rows, _contiguous_parts(n1, n2))
    spanning = True
    stats = {"n_prime": half, "s_max": ap.N, "ap_size": size,
             "max_element": top, "full_matchings": len(mats)}
    if chunk is not None:
        if chunk > size:
            raise GuardError(f"chunk={chunk} outside [1, {size}]")
        pieces = size // chunk
        dropped = size - pieces * chunk
        mats = [mt[j * chunk:(j + 1) * chunk]
                for mt in mats for j in range(pieces)]
        spanning = dropped == 0
        stats.update({"chunk": chunk, "pieces": pieces,
                      "dropped_per_matching": dropped})
    return verified(verify_rs, RsDecomposition(
        graph=graph, matchings=tuple(mats), spanning=spanning, stats=stats))


def _check_decomposition(g, dec: RsDecomposition) -> None:
    """GuardError unless a caller's decomposition is of g and verifies."""
    if dec.graph is not g and (dec.graph.n != g.n or dec.graph.adj != g.adj):
        raise GuardError("decomposition does not belong to the host graph")
    ok, viol = verify_rs(dec)
    if not ok:
        raise GuardError(f"invalid decomposition: {viol}")


def bipartite_double(g, dec: RsDecomposition) -> RsDecomposition:
    """Lift a decomposition to the bipartite double cover of its host.

    The double has two copies of V(g); left u and right v are adjacent iff
    (u, v) is a host edge.  Each size-n matching becomes the size-2n matching
    with both copies of each edge: a cross edge joining two of its edges
    would project to a host edge inside the original matching's vertex set,
    which inducedness forbids.  The lifted decomposition is re-verified.
    """
    _check_decomposition(g, dec)
    n = g.n
    rows = [g.adj[u] << n for u in range(n)] + [g.adj[u] for u in range(n)]
    doubled = BipartiteGraph._from_parts(rows, _contiguous_parts(n, n))
    mats = tuple(
        tuple(sorted([(u, n + v) for u, v in mt] + [(v, n + u) for u, v in mt]))
        for mt in dec.matchings)
    return verified(verify_rs, RsDecomposition(
        graph=doubled, matchings=mats, spanning=dec.spanning,
        stats={"doubled_from": n, "source_n": dec.n, "source_t": dec.t}))


class _BudgetExhausted(Exception):
    """Internal: the branch-and-bound node budget ran out."""


def _matching_search(g, pool, n: int, budget: list):
    """Lex-first induced matching of size n using edges from pool.

    Returns the matching as a list of edges, or None when a complete search
    proves none exists.  budget is a one-cell list of remaining search nodes
    shared across calls; exhaustion raises _BudgetExhausted.  Pruning: suffix
    edge count, and a vertex-capacity bound (usable vertices // 2) over the
    untried suffix.
    """
    k = len(pool)
    if k < n:
        return None
    vmask = [(1 << u) | (1 << v) for u, v in pool]
    conflict = [g.adj[u] | g.adj[v] | vmask[i] for i, (u, v) in enumerate(pool)]
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] | vmask[i]
    chosen = []

    def walk(start: int, forbidden: int) -> bool:
        if len(chosen) == n:
            return True
        need = n - len(chosen)
        for idx in range(start, k):
            if k - idx < need:
                return False
            if (suffix[idx] & ~forbidden).bit_count() < 2 * need:
                return False
            if vmask[idx] & forbidden:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExhausted
            chosen.append(idx)
            if walk(idx + 1, forbidden | conflict[idx]):
                return True
            chosen.pop()
        return False

    if walk(0, 0):
        return [pool[i] for i in chosen]
    return None


def verify_falsifying(g, red, t: int, n: int, budget: Optional[int] = None):
    """Independent check that a coloring avoids red K_{1,t} and blue M_n.

    red lists the red edges; the rest of E(g) is blue.  The red side is a
    degree scan (a star needs t red edges at one vertex), the blue side an
    exact search for n blue edges forming a matching induced in g.  Returns
    (True, None), (False, ("red_star", vertex)), or
    (False, ("blue_matching", edges)).  Malformed red edges raise ValueError.
    """
    if t < 1 or n < 1:
        raise GuardError("t and n must be at least 1")
    seen = set()
    deg = [0] * g.n
    for e in red:
        u, v = e
        if not (0 <= u < v < g.n) or not g.has_edge(u, v):
            raise ValueError(f"red edge {e} not a canonical host edge")
        if e in seen:
            raise ValueError(f"duplicate red edge {e}")
        seen.add(e)
        deg[u] += 1
        deg[v] += 1
    for u in range(g.n):
        if deg[u] >= t:
            return False, ("red_star", u)
    pool = [e for e in g.edges() if e not in seen]
    box = [SEARCH_BUDGET if budget is None else budget]
    try:
        found = _matching_search(g, pool, n, box)
    except _BudgetExhausted:
        raise GuardError("verification search budget exhausted") from None
    if found is not None:
        return False, ("blue_matching", tuple(found))
    return True, None


def greedy_decompose_guard(vertices: int, n: int,
                           t_target: Optional[int] = None,
                           budget: Optional[int] = None) -> None:
    """GuardError unless n >= 1, t_target (when given) >= 1, and a host of
    more than DECOMPOSE_VERTEX_CAP vertices comes with a budget."""
    if n < 1:
        raise GuardError("matching size must be at least 1")
    if t_target is not None and t_target < 1:
        raise GuardError("t_target must be at least 1")
    if budget is None and vertices > DECOMPOSE_VERTEX_CAP:
        raise GuardError(f"host has {vertices} > {DECOMPOSE_VERTEX_CAP} "
                         "vertices; pass an explicit budget")


def greedy_decompose(g, n: int, t_target: Optional[int] = None,
                     budget: Optional[int] = None):
    """Extract disjoint induced matchings of size n until none remain.

    Repeatedly finds the lexicographically first matching of size n that is
    induced in g among the still-uncolored edges and marks it red.  With
    t_target unset, any nonempty extraction is returned as a spanning
    RsDecomposition over the subgraph formed by the extracted edges; with
    t_target set, reaching it returns the decomposition.  Otherwise the run
    certifies the complementary coloring: extracted edges red (fewer than t
    matchings, so red degree < t), the rest blue with no induced matching of
    size n left, returned as a FalsifyingColoring after independent
    re-verification.  Exceeding the search budget returns a Failure with the
    partial extraction count.  Hosts larger than DECOMPOSE_VERTEX_CAP
    vertices require an explicit budget.
    """
    greedy_decompose_guard(g.n, n, t_target, budget)
    if budget is None:
        budget = SEARCH_BUDGET
    box = [budget]
    pool = g.edges()
    extracted = []
    try:
        while True:
            found = _matching_search(g, pool, n, box)
            if found is None:
                break
            extracted.append(tuple(found))
            used = set(found)
            pool = [e for e in pool if e not in used]
    except _BudgetExhausted:
        return Failure("greedy_decompose", "search budget exhausted",
                       {"extracted": len(extracted), "budget": budget})
    k = len(extracted)
    stats = {"extracted": k, "n": n, "host_edges": g.m,
             "budget_left": box[0]}
    if (t_target is None and k >= 1) or (t_target is not None and k >= t_target):
        rows = [0] * g.n
        for mt in extracted:
            for u, v in mt:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        sub = Graph._from_rows(g.n, rows)
        return verified(verify_rs, RsDecomposition(
            graph=sub, matchings=tuple(extracted), spanning=True, stats=stats))
    bound = 1 if t_target is None else t_target
    red = tuple(sorted(e for mt in extracted for e in mt))
    deg = [0] * g.n
    for u, v in red:
        deg[u] += 1
        deg[v] += 1
    col = FalsifyingColoring(red=red, t=bound, n=n,
                             stats={**stats,
                                    "red_max_degree": max(deg, default=0)})
    verified(verify_falsifying, g, red, bound, n, budget=budget)
    return col


def arrow_check_guard(t: int, n: int, mode: str, m: int) -> None:
    """GuardError unless t, n >= 1, the mode is known and, in exhaustive
    mode, the host's m edges are at most ARROW_EDGE_CAP."""
    if t < 1 or n < 1:
        raise GuardError("t and n must be at least 1")
    if mode not in ("exhaustive", "theorem"):
        raise GuardError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and m > ARROW_EDGE_CAP:
        raise GuardError(f"{m} edges exceed exhaustive cap {ARROW_EDGE_CAP}")


def arrow_check(g, t: int, n: int, mode: str = "exhaustive",
                decomposition: Optional[RsDecomposition] = None) -> ArrowInstance:
    """Decide whether g arrows the pair (K_{1,t}, M_n).

    Exhaustive mode iterates every red/blue coloring of at most
    ARROW_EDGE_CAP edges; a coloring with no vertex of red degree t and no
    blue matching of size n induced in g falsifies and is re-verified before
    being returned.  If the per-coloring search budget runs out the verdict
    is "unknown".  Theorem mode takes a spanning decomposition of a
    bipartite host into T induced matchings of common size s and certifies
    the majority-color argument: any coloring gives some matching at least
    ceil(s/2) blue edges or some vertex red degree at least ceil(m/N), so
    ceil(s/2) >= n and ceil(m/N) >= t (with s >= 2n, recorded as c = s/n >=
    2) imply arrowing.  Hypotheses that fail raise GuardError.
    """
    arrow_check_guard(t, n, mode, g.m)
    if mode == "exhaustive":
        edges = g.edges()
        m = len(edges)
        for cm in range(1 << m):
            deg = [0] * g.n
            starred = False
            for i in iter_bits(cm):
                u, v = edges[i]
                deg[u] += 1
                deg[v] += 1
                if deg[u] >= t or deg[v] >= t:
                    starred = True
                    break
            if starred:
                continue
            blue = [edges[i] for i in range(m) if not cm >> i & 1]
            try:
                if _matching_search(g, blue, n, [SEARCH_BUDGET]) is not None:
                    continue
            except _BudgetExhausted:
                return ArrowInstance(
                    graph=g, t=t, n=n, verdict="unknown", red=None,
                    stats={"mode": "exhaustive", "colorings_scanned": cm,
                           "reason": "search budget exhausted"})
            red = tuple(edges[i] for i in iter_bits(cm))
            verified(verify_falsifying, g, red, t, n)
            return ArrowInstance(graph=g, t=t, n=n, verdict="falsified",
                                 red=red,
                                 stats={"mode": "exhaustive",
                                        "colorings_scanned": cm + 1})
        return ArrowInstance(graph=g, t=t, n=n, verdict="arrows", red=None,
                             stats={"mode": "exhaustive",
                                    "colorings_scanned": 1 << m})
    if decomposition is None:
        raise GuardError("theorem mode requires a decomposition")
    dec = decomposition
    _check_decomposition(g, dec)
    if not isinstance(g, BipartiteGraph):
        raise GuardError("theorem mode requires a bipartite host")
    if not dec.spanning:
        raise GuardError("theorem mode requires a spanning decomposition")
    s, count, verts, m = dec.n, dec.t, g.n, g.m
    return ArrowInstance(graph=g, t=t, n=n, verdict="arrows", red=None,
                         stats={"mode": "theorem", "s": s,
                                "t_count": count, "m": m, "N": verts,
                                **_theorem_bounds(s, m, verts, t, n)})


def _theorem_bounds(s: int, m: int, verts: int, t: int, n: int) -> dict:
    """Theorem mode's bounds for matchings of size s in a host with m edges
    on verts vertices; GuardError naming each hypothesis they miss."""
    bounds = {"c": Fraction(s, n), "red_degree_bound": -(-m // verts),
              "blue_chunk_bound": (s + 1) // 2}
    checks = {"c_at_least_2": bounds["c"] >= 2,
              "blue_half_matching": bounds["blue_chunk_bound"] >= n,
              "red_average_degree": bounds["red_degree_bound"] >= t}
    bad = [name for name, good in checks.items() if not good]
    if bad:
        raise GuardError("decomposition hypotheses unmet: " + ", ".join(bad))
    return bounds


def behrend_arrow_guard(N: int, t: int, n: int) -> None:
    """GuardError unless theorem mode's hypotheses hold on the unbuilt double
    of rs_from_behrend(N): N' - max S matchings of size 2|S|, 6N' vertices."""
    rs_from_behrend_guard(N)
    half, ap = _behrend_offsets(N)
    s = 2 * len(ap.elements)
    _theorem_bounds(s, s * (half - ap.elements[-1]), 6 * half, t, n)
