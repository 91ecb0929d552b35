"""K_{r,r}-free subgraphs of graphs, and the k-partite count check.

Counts copies of K_{r,r} in a graph G, extracts K_{r,r}-free subgraphs of G
by randomized sample-then-delete rounds with a hard size floor, builds the
complete bipartite instances on which the floor is tight, and brackets
exact maximum K_{r,r}-free subgraph sizes with a desk-scale branch-and-bound
oracle.  The k-partite check counts the complete k-partite k-graph with
parts of size r in a k-partite k-graph against binomial lower bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (BipartiteGraph, Failure, Graph, GuardError,
                   KUniformHypergraph, RngStream, _bernoulli_rows,
                   bits, complete_bipartite, mask_of, verified)

MAX_COPY_BOUND = 10 ** 9
MAX_INSTANCE_EDGES = 10 ** 6
MAX_KPARTITE_EDGES = 10 ** 5
ORACLE_MAX_U = 5
ORACLE_MAX_V = 20


@dataclass(frozen=True)
class ExtractionResult:
    """A verified pattern-free subgraph meeting the guaranteed size floor."""

    subgraph: object
    trials_used: int
    target_size: int


@dataclass(frozen=True)
class TightInstance:
    """Complete bipartite host K_{a, a^r} with m = a^(r+1) edges."""

    graph: BipartiteGraph
    r: int
    s: int
    m: int

    def kst_bound(self) -> int:
        """s * m^(r/(r+1)), integral because the part sizes are exact powers."""
        return self.s * self.graph.n2


@dataclass(frozen=True)
class KPartiteInstance:
    """Complete k-partite k-graph with part sizes n^(r^(i-1))."""

    hypergraph: KUniformHypergraph
    parts: tuple
    k: int
    r: int
    n: int


@dataclass(frozen=True)
class KPartiteCheck:
    """Exact pattern count versus the binomial lower bounds.

    ``bound`` uses the stated offset a-k+1; ``proof_bound`` the inductive
    base-case offset a-k+2 (the stronger of the two at k=2).
    """

    count: int
    a: Fraction
    bound: Fraction
    proof_bound: Fraction
    passed: bool
    proof_passed: bool


@dataclass(frozen=True)
class ZarankiewiczResult:
    """Bracket on the maximum pattern-free subgraph size of a tight instance.

    ``rows`` holds one neighborhood bitmask per V = V2 vertex for the best
    subgraph found, with bit i standing for vertex i of U = V1; size ==
    upper when the search completed.
    """

    size: int
    upper: int
    exact: bool
    nodes: int
    rows: tuple


# ---------------------------------------------------------------------------
# Counting


def count_pattern(G, r: int) -> int:
    """Exact number of unlabeled copies of K_{r,r} in the graph G, by the
    walk of ``_rsets``; ``graph_copy_guard`` rejects the input first."""
    graph_copy_guard(G.m, r)
    total = sum([math.comb(c.bit_count(), r) for _, c in _rsets(G.adj, G.n, r)])
    # every copy is counted once from each of its two sides
    if total % 2:
        raise AssertionError("side-count parity broken")
    return total // 2


def graph_copy_guard(m: int, r: int) -> None:
    """GuardError unless r >= 2, or when 2*m^r, the copy bound of K_{r,r}
    in an m-edge graph, exceeds MAX_COPY_BOUND.

    m^r >= 2^r once m >= 2, so a large r is rejected before the power.
    """
    if r < 2:
        raise GuardError("K_{r,r} needs r >= 2")
    if m >= 2 and (r >= MAX_COPY_BOUND.bit_length()
                   or 2 * m ** r > MAX_COPY_BOUND):
        raise GuardError(f"copy bound 2*m^r for m={m}, r={r} exceeds "
                         f"{MAX_COPY_BOUND}")


def _rsets(adj: Sequence[int], n: int, r: int):
    """Iterate ``(A, common)``, in lex order, over exactly the r-sets A of
    ``range(n)`` whose rows share at least r bits; ``common`` is their AND.

    Rows must be symmetric.  Each prefix's AND is taken once and shared by
    all its extensions, as in ``lll_embed._thin_k_set_ranks``, and a prefix
    whose AND has fewer than r bits is dropped with all its extensions.  A
    vertex shares a bit with the AND exactly when it is adjacent to one of
    its members, so after the first vertex the next comes only from the
    two-hop reach: the OR of the members' rows, past the last vertex of
    the prefix.  On a sparse graph that skips almost every r-set; on a
    dense one the reach is nearly all of V and only costs.
    """
    if not 1 <= r <= n:
        return iter(())
    return _extend_rsets(adj, r, (), (1 << n) - 1, range(n))


def _extend_rsets(adj, r: int, prefix: tuple, common: int, cands):
    """The walk's r-sets that extend ``prefix``, whose rows AND to
    ``common``, by vertices of ``cands``: a list at the last level, else a
    lazy chain of the next level's, so no Python frame runs per r-set."""
    if len(prefix) == r - 1:
        # a bare AND and popcount per candidate: on a dense host this level
        # is most of the work
        return [(prefix + (v,), c) for v in cands
                if (c := common & adj[v]).bit_count() >= r]
    return itertools.chain.from_iterable(
        _extend_rsets(adj, r, prefix + (v,), c, _reach(adj, c, v))
        for v in cands if (c := common & adj[v]).bit_count() >= r)


def _reach(adj, common: int, last: int):
    """The vertices past ``last`` adjacent to a vertex of ``common``."""
    reach = functools.reduce(operator.or_,
                             map(adj.__getitem__, bits(common)), 0)
    return bits(reach >> (last + 1) << (last + 1))


def _pattern_free(G, r: int) -> bool:
    """``count_pattern(G, r) == 0`` with the same guard; the walk stops at
    the first r-set with r common neighbours."""
    graph_copy_guard(G.m, r)
    return next(_rsets(G.adj, G.n, r), None) is None


# ---------------------------------------------------------------------------
# Extraction


def _ceil_power_ratio(m: int, num: int, den: int, divisor: int) -> int:
    """Smallest integer t with (divisor*t)^den >= m^num, i.e. ceil(m^(num/den)/divisor)."""
    t = max(1, math.ceil(m ** (num / den) / divisor))
    while (divisor * t) ** den < m ** num:
        t += 1
    while t > 1 and (divisor * (t - 1)) ** den >= m ** num:
        t -= 1
    return t


def extraction_target(m: int, r: int) -> int:
    """Guaranteed K_{r,r}-free subgraph size ceil(m^(r/(r+1))/4) for an
    m-edge input."""
    return _ceil_power_ratio(m, r, r + 1, 4) if m >= 1 else 0


def _sample_rows(G, p: float, stream: RngStream) -> list:
    """Rows of the subgraph of G that keeps the k-th edge of ``G.edges()``
    exactly when bit k of one ``_bernoulli_rows`` row of length ``G.m`` is
    set, so each edge is kept independently with probability p."""
    n, adj = G.n, G.adj
    kept = _bernoulli_rows(stream, [G.m], p)[0]
    rows = [0] * n
    for u in range(n):
        upper = adj[u] >> (u + 1)
        d = upper.bit_count()
        if kept & ((1 << d) - 1):
            for j, off in enumerate(bits(upper)):
                if kept >> j & 1:
                    v = u + 1 + off
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        kept >>= d
    return rows


def _graph_round(G, r: int, stream: RngStream) -> Graph:
    """One sample-then-delete round; returns a K_{r,r}-free subgraph of G."""
    p = 0.5 * G.m ** (-1.0 / (r + 1))
    n = G.n
    rows = _sample_rows(G, p, stream)
    work = rows[:]
    # enumerate the sampled subgraph's copies in lexicographic (A, B) order,
    # each once from the side holding its smallest vertex A[0], and break
    # each still-intact copy by deleting its smallest edge (A[0], B[0])
    for A, common in _rsets(rows, n, r):
        later = common >> (A[0] + 1) << (A[0] + 1)
        if later.bit_count() < r:
            continue
        for B in itertools.combinations(bits(later), r):
            side = mask_of(B)
            if all(work[a] & side == side for a in A):
                u, v = A[0], B[0]
                work[u] &= ~(1 << v)
                work[v] &= ~(1 << u)
    return Graph._from_rows(n, work)


def verify_free_subgraph(G, r: int, H):
    """(ok, reason) for H as a K_{r,r}-free subgraph of the graph G: reason
    is ("vertices", H.n) when H has another vertex count than G,
    ("not_subgraph", e) for the first edge e of H, sorted, that G lacks,
    or ("copies", c) for H's c copies of K_{r,r}.

    The count does not walk ``_rsets``.  An r-set B is met once as an
    r-subset of each of its c common neighbours' rows, and gives the
    C(c, r) copies with B on one side, so the sum over B counts each copy
    once from each side.  An r-set with a vertex of degree below r has
    fewer than r common neighbours, so the rows leave such vertices out.
    """
    if H.n != G.n:
        return False, ("vertices", H.n)
    extra = [(u, v) for u in range(G.n) for v in bits(H.adj[u] & ~G.adj[u])]
    if extra:
        return False, ("not_subgraph", extra[0])
    graph_copy_guard(H.m, r)
    wide = mask_of(v for v, row in enumerate(H.adj) if row.bit_count() >= r)
    met = Counter(itertools.chain.from_iterable(
        itertools.combinations(bits(row & wide), r) for row in H.adj))
    total = sum([math.comb(c, r) for c in met.values()])
    if total % 2:
        raise AssertionError("side-count parity broken")
    if total:
        return False, ("copies", total // 2)
    return True, None


def extract_free(G, r: int, rng: RngStream,
                 retry_cap: int = 400) -> Union[ExtractionResult, Failure]:
    """K_{r,r}-free subgraph of the graph G with at least
    ``extraction_target(G.m, r)`` edges.

    Each round keeps every edge with probability (1/2)m^(-1/(r+1)) and
    breaks the sample's copies.  Rounds repeat with fresh derived streams
    until the floor ceil(m^(r/(r+1))/4) is met (guaranteed in expectation);
    a K_{r,r}-free input is returned unchanged.  Every round's subgraph is
    re-verified by ``verify_free_subgraph``.
    """
    # the copy-bound guard runs before m^r is taken; the host needs only an
    # existence test, while every returned subgraph gets a full count
    pattern_free = _pattern_free(G, r)
    target = extraction_target(G.m, r)
    if pattern_free:
        return ExtractionResult(G, 0, target)
    best = None
    for t in range(1, retry_cap + 1):
        H = _graph_round(G, r, rng.derive("extract", t))
        verified(verify_free_subgraph, G, r, H)
        if best is None or H.m > best.m:
            best = H
        if H.m >= target:
            return ExtractionResult(H, t, target)
    return Failure("extract_free", "retry cap exhausted", {
        "target": target, "best_edges": best.m if best is not None else 0,
        "best_subgraph": best})


# ---------------------------------------------------------------------------
# Tight instances and the Zarankiewicz-type oracle


def tight_instance_guard(r: int, s: int, m: int) -> tuple:
    """The part sizes (a, a^r) of ``tight_instance(r, s, m)``; GuardError
    unless 2 <= r <= s, m <= MAX_INSTANCE_EDGES and m = a^(r+1)."""
    if r < 2 or s < r:
        raise GuardError("need 2 <= r <= s")
    if m > MAX_INSTANCE_EDGES:
        raise GuardError(f"instance with {m} edges exceeds {MAX_INSTANCE_EDGES}")
    # a^(r+1) >= 2^(r+1) > m unless a = 1 once r + 1 reaches m's bit length
    a = 1
    if 1 < m and r + 1 < m.bit_length():
        a = max(1, round(m ** (1.0 / (r + 1))))
        while a > 1 and a ** (r + 1) > m:
            a -= 1
        while (a + 1) ** (r + 1) <= m:
            a += 1
    if a ** (r + 1) != m:
        raise GuardError(f"m={m} is not a perfect {r + 1}-th power")
    return a, a ** r


def tight_instance(r: int, s: int, m: int) -> TightInstance:
    """Complete bipartite K_{a, a^r} with m = a^(r+1) edges.

    Requires m to be a perfect (r+1)-th power so all part sizes stay exact.
    """
    return TightInstance(complete_bipartite(*tight_instance_guard(r, s, m)),
                         r, s, m)


def _count_krs_sides(vrows: Sequence[int], usize: int, r: int, s: int) -> tuple:
    """Copies of K_{r,s} by orientation: (r-side in U, s-side in U)."""
    def oriented(a: int, b: int) -> int:
        if usize < a:
            return 0
        total = 0
        for A in itertools.combinations(range(usize), a):
            need = 0
            for u in A:
                need |= 1 << u
            covering = sum(1 for row in vrows if row & need == need)
            if covering >= b:
                total += math.comb(covering, b)
        return total

    first = oriented(r, s)
    second = first if r == s else oriented(s, r)
    return first, second


def zarankiewicz_oracle_guard(usize: int, vsize: int) -> None:
    """GuardError unless the host's smaller part has at most ORACLE_MAX_U
    vertices and its larger part at most ORACLE_MAX_V."""
    if usize > ORACLE_MAX_U or vsize > ORACLE_MAX_V:
        raise GuardError(f"oracle limited to |U| <= {ORACLE_MAX_U}, "
                         f"|V| <= {ORACLE_MAX_V}")


def zarankiewicz_oracle(instance: TightInstance,
                        budget: Optional[int] = None) -> ZarankiewiczResult:
    """Exact maximum edges of a K_{r,s}-free subgraph of a tight instance.

    Both orientations of the pattern are forbidden.  Branch and bound assigns
    each V = V2 vertex a neighborhood mask over U = V1, in nonincreasing mask
    order, which quotients out the V-permutation symmetry of the complete
    host.  The prune uses C(d, r) >= d - r + 1: a vertex of degree d
    consumes at least d - (r-1) units of r-subset coverage capacity.  With a
    node budget the result may degrade to a certified bracket.
    """
    r, s = instance.r, instance.s
    usize, vsize = instance.graph.n1, instance.graph.n2
    zarankiewicz_oracle_guard(usize, vsize)
    full_u = (1 << usize) - 1

    # One table per forbidden orientation: an a-subset of U may lie in at
    # most cap chosen V rows, for (a, cap) = (r, s - 1) and, unless that
    # repeats it or U has no s-subsets, (s, r - 1).  covers[t][msk] lists
    # table t's subsets inside msk, left[t] their unused capacity and res[t]
    # its sum; a row of degree d uses at least d - free[t] of it.
    free, covers, left, res = [], [], [], []
    for a, cap in [(r, s - 1)] + ([(s, r - 1)] if s != r and s <= usize else []):
        subs = [mask_of(A) for A in itertools.combinations(range(usize), a)]
        free.append(a - 1)
        covers.append({msk: tuple(i for i, am in enumerate(subs) if am & msk == am)
                       for msk in range(full_u + 1)})
        left.append([cap] * len(subs))
        res.append(len(subs) * cap)
    tables = range(len(res))
    upper_cap = min([usize * vsize] + [vsize * f + c for f, c in zip(free, res)])

    desc = sorted(range(full_u + 1), key=lambda msk: (-msk.bit_count(), -msk))
    best = 0
    best_rows: list[int] = [0] * vsize
    assignment: list[int] = []
    nodes = 0
    aborted = False
    budget_cap = budget if budget is not None else float("inf")

    def node_bound(pos: int, pc_cap: int) -> int:
        rem = vsize - pos
        ub = rem * pc_cap
        for t in tables:
            ub = min(ub, rem * free[t] + res[t])
        return ub

    def apply(msk: int) -> bool:
        for t in tables:
            lt = left[t]
            for i in covers[t][msk]:
                if not lt[i]:
                    return False
        for t in tables:
            lt, cov = left[t], covers[t][msk]
            for i in cov:
                lt[i] -= 1
            res[t] -= len(cov)
        return True

    def retract(msk: int) -> None:
        for t in tables:
            lt, cov = left[t], covers[t][msk]
            for i in cov:
                lt[i] += 1
            res[t] += len(cov)

    def dfs(pos: int, start: int, cur: int) -> None:
        nonlocal best, best_rows, nodes, aborted
        nodes += 1
        if nodes > budget_cap:
            aborted = True
            return
        if cur > best:
            best = cur
            best_rows = assignment + [0] * (vsize - pos)
        if pos == vsize:
            return
        for idx in range(start, len(desc)):
            msk = desc[idx]
            if cur + node_bound(pos, msk.bit_count()) <= best:
                break  # masks are in nonincreasing size order
            if not apply(msk):
                continue
            assignment.append(msk)
            dfs(pos + 1, idx, cur + msk.bit_count())
            assignment.pop()
            retract(msk)
            if aborted:
                return

    dfs(0, 0, 0)

    upper = max(upper_cap, best) if aborted else best
    result = ZarankiewiczResult(size=best, upper=upper, exact=not aborted,
                                nodes=nodes, rows=tuple(best_rows))
    verified(verify_zarankiewicz, instance, result)
    return result


def verify_zarankiewicz(instance: TightInstance, res: ZarankiewiczResult):
    """(ok, reason) for the rows of ``zarankiewicz_oracle(instance)``:
    reason is ("not_subgraph", i) for the first V vertex i off its host
    row, ("size", e) for e != res.size edges, ("bound", res.size) above
    s*m^(r/(r+1)), or ("pattern", first, second) for the K_{r,s} copies by
    orientation."""
    host = instance.graph
    zarankiewicz_oracle_guard(host.n1, host.n2)
    if len(res.rows) != host.n2:
        raise ValueError(f"{len(res.rows)} rows for {host.n2} V vertices")
    # U = V1 holds ids [0, n1), so a V vertex's host row is its mask over U
    for i, (row, v) in enumerate(zip(res.rows, host.v2)):
        if row & ~host.adj[v]:
            return False, ("not_subgraph", i)
    edges = sum(row.bit_count() for row in res.rows)
    if edges != res.size:
        return False, ("size", edges)
    if res.size > instance.kst_bound():
        return False, ("bound", res.size)
    first, second = _count_krs_sides(res.rows, host.n1, instance.r,
                                     instance.s)
    if first or second:
        return False, ("pattern", first, second)
    return True, None


# ---------------------------------------------------------------------------
# k-partite instances and the binomial count check


def kpartite_instance_guard(k: int, r: int, n: int) -> int:
    """The edge count m = n^q, q = 1 + r + ... + r^(k-1), of
    ``kpartite_instance(k, r, n)``; GuardError unless k, r, n >= 2 and
    m <= MAX_KPARTITE_EDGES.

    n^q >= 2^q, so q is summed only while it stays below the cap's bit
    length and a larger q is rejected without the power.
    """
    if k < 2 or r < 2 or n < 2:
        raise GuardError("need k >= 2, r >= 2, n >= 2")
    limit = MAX_KPARTITE_EDGES.bit_length()
    q, term = 0, 1
    for _ in range(k):
        q += term
        term *= r
        if q >= limit:
            break
    if q >= limit or n ** q > MAX_KPARTITE_EDGES:
        raise GuardError(f"instance K({k}, {r}, {n}) exceeds desk scale "
                         f"of {MAX_KPARTITE_EDGES} edges")
    return n ** q


def hyper_copy_guard(k: int, m: int, r: int) -> None:
    """GuardError when (k!)^r * C(m, r), the copy bound of the k-partite
    pattern with parts of size r in an m-edge k-graph (k >= 2), exceeds
    MAX_COPY_BOUND.

    The bound is 0 below r edges and at least 2^r from r edges on, so a
    large r is decided without the power.
    """
    if m >= r and (r >= MAX_COPY_BOUND.bit_length()
                   or math.factorial(k) ** r * math.comb(m, r) > MAX_COPY_BOUND):
        raise GuardError(f"copy bound (k!)^r * C(m,r) for k={k}, m={m}, r={r} "
                         f"exceeds {MAX_COPY_BOUND}")


def kpartite_instance(k: int, r: int, n: int) -> KPartiteInstance:
    """Complete k-partite k-graph with |U_i| = n^(r^(i-1)); m = n^q edges."""
    kpartite_instance_guard(k, r, n)
    sizes = [n ** (r ** i) for i in range(k)]
    parts = []
    offset = 0
    for size in sizes:
        parts.append(tuple(range(offset, offset + size)))
        offset += size
    edges = [frozenset(t) for t in itertools.product(*parts)]
    return KPartiteInstance(KUniformHypergraph(offset, k, edges),
                            tuple(parts), k, r, n)


def _ext_binom(t: Fraction, r: int) -> Fraction:
    """Convex extension of C(t, r): zero at or below t = r - 1."""
    if t <= r - 1:
        return Fraction(0)
    num = Fraction(1)
    for j in range(r):
        num *= t - j
    return num / math.factorial(r)


def _count_aligned(table: dict, r: int) -> int:
    """Sum over r-subsets S_1..S_j of the prefix coordinates of
    C(|AND of table over S_1 x ... x S_j|, r).

    ``table`` maps j-tuples (one vertex per part) to a last-part mask; a
    missing tuple stands for the empty mask.  The first coordinate is
    collapsed by AND over each r-subset S_1, dropping masks with fewer than
    r bits, and the rest recurses.
    """
    if () in table:
        return math.comb(table[()].bit_count(), r)
    by_head: dict[int, dict] = {}
    for key, mask in table.items():
        if mask.bit_count() >= r:
            by_head.setdefault(key[0], {})[key[1:]] = mask
    total = 0
    for S in itertools.combinations(sorted(by_head), r):
        sub = by_head[S[0]]
        for x in S[1:]:
            other = by_head[x]
            sub = {key: mask & other[key] for key, mask in sub.items()
                   if key in other}
        total += _count_aligned(sub, r)
    return total


def kpartite_count_check(H: KUniformHypergraph, parts: Sequence[Sequence[int]],
                         r: int) -> KPartiteCheck:
    """Exact pattern count versus the binomial lower bounds in H.

    The count is part-aligned: since every edge takes one vertex from each
    part, each part of a copy lies in its own host part, so the count is
    the sum over r-subsets S_i of U_i (i <= k-1) of C(c, r), where c is the
    number of U_k vertices completing all r^(k-1) transversals; the
    transversal masks are ANDed as bitsets.  Inputs over
    ``hyper_copy_guard``'s copy bound are rejected.

    a = m / prod(|U_i|, i >= 2).  The stated bound is
    C_ext(a-k+1, r) * prod(C(|U_i|, r), i <= k-1); the inductive base case
    yields the same product with offset a-k+2.  ``passed`` asserts the stated
    bound, ``proof_passed`` the stronger one.
    """
    parts = [tuple(p) for p in parts]
    k = H.k
    if len(parts) != k:
        raise GuardError(f"expected {k} parts, got {len(parts)}")
    flat = sorted(v for p in parts for v in p)
    if flat != list(range(H.n)):
        raise GuardError("parts must partition the vertex set")
    n1 = len(parts[0])
    for i, p in enumerate(parts):
        if len(p) != n1 ** (r ** i):
            raise GuardError("part sizes must follow |U_i| = n^(r^(i-1))")
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    for e in H.edges:
        if sorted(part_of[v] for v in e) != list(range(k)):
            raise GuardError("every edge must take one vertex from each part")
    denom = math.prod(len(p) for p in parts[1:])
    a = Fraction(H.m, denom)
    prod_binom = math.prod(math.comb(len(p), r) for p in parts[:-1])
    bound = _ext_binom(a - k + 1, r) * prod_binom
    proof_bound = _ext_binom(a - k + 2, r) * prod_binom
    if k < 2 or r < 2:
        raise GuardError("the pattern needs k >= 2 and r >= 2")
    hyper_copy_guard(k, H.m, r)
    # every edge is transversal, so each part of a copy lies inside its own
    # host part: index edges by their (k-1)-prefix, one U_k mask per prefix
    table: dict[tuple, int] = {}
    for e in H.edges:
        *prefix, last = sorted(e, key=part_of.__getitem__)
        key = tuple(prefix)
        table[key] = table.get(key, 0) | 1 << last
    count = _count_aligned(table, r)
    return KPartiteCheck(count=count, a=a, bound=bound,
                         proof_bound=proof_bound, passed=count >= bound,
                         proof_passed=count >= proof_bound)
