"""Counting and extraction of complete-multipartite-pattern-free subgraphs.

Counts copies of K_{r,r} in graphs and of the complete k-partite k-graph with
parts of size r in hypergraphs, extracts pattern-free subgraphs by randomized
sample-then-delete rounds with a hard size floor, builds the complete
bipartite instances on which the floor is tight, and brackets exact maximum
pattern-free subgraph sizes with desk-scale branch-and-bound oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (BipartiteGraph, Graph, GuardError, KUniformHypergraph,
                   RetryError, RngStream, complete_bipartite, iter_bits,
                   mask_of)

MAX_COPY_BOUND = 10 ** 9
MAX_INSTANCE_EDGES = 10 ** 6
ORACLE_MAX_U = 5
ORACLE_MAX_V = 20


@dataclass(frozen=True)
class Pattern:
    """Complete k-partite pattern with all parts of size r (k=2: K_{r,r})."""

    k: int
    r: int

    def __post_init__(self):
        if self.k < 2 or self.r < 2:
            raise GuardError("patterns need k >= 2 and r >= 2")


def K_rr(r: int) -> Pattern:
    return Pattern(2, r)


def K_k_rr(k: int, r: int) -> Pattern:
    return Pattern(k, r)


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

    @property
    def u_size(self) -> int:
        return self.graph.n1

    @property
    def v_size(self) -> int:
        return self.graph.n2

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
    """Bracket on the maximum pattern-free subgraph size of a bipartite host.

    ``rows`` holds one neighborhood bitmask per V vertex for the best
    subgraph found, with bit i standing for the i-th vertex of U in id order;
    size == upper when the search completed.
    """

    size: int
    upper: int
    exact: bool
    nodes: int
    rows: tuple


# ---------------------------------------------------------------------------
# Counting


def count_pattern(G, pattern: Pattern) -> int:
    """Exact number of unlabeled copies of the pattern in G.

    Rejects inputs whose a-priori copy bound exceeds 10^9: 2*m^r for graphs,
    (k!)^r * C(m, r) for k-graphs.
    """
    if isinstance(G, KUniformHypergraph):
        if pattern.k != G.k:
            raise GuardError(f"pattern arity {pattern.k} != hypergraph arity {G.k}")
        return _count_hyper(G, pattern.r)
    if pattern.k != 2:
        raise GuardError("k-partite patterns with k > 2 need a k-uniform hypergraph")
    return _count_graph(G, pattern.r)


def _count_graph(G, r: int) -> int:
    bound = 2 * G.m ** r
    if bound > MAX_COPY_BOUND:
        raise GuardError(f"copy bound 2*m^r = {bound} exceeds {MAX_COPY_BOUND}")
    n, adj = G.n, G.adj
    total = 0
    for A in itertools.combinations(range(n), r):
        common = adj[A[0]]
        for v in A[1:]:
            common &= adj[v]
        c = common.bit_count()
        if c >= r:
            total += math.comb(c, r)
    # every copy is counted once from each of its two sides
    if total % 2:
        raise AssertionError("side-count parity broken")
    return total // 2


def _edge_key(e) -> tuple:
    return tuple(sorted(e))


def _copies_of_matching(combo, k: int):
    """All part structures assembling the r disjoint edges into a copy."""
    orderings_per_edge = [list(itertools.permutations(sorted(e))) for e in combo]
    for orderings in itertools.product(*orderings_per_edge):
        yield tuple(frozenset(o[i] for o in orderings) for i in range(k))


def _count_hyper(G: KUniformHypergraph, r: int) -> int:
    k = G.k
    bound = math.factorial(k) ** r * math.comb(G.m, r)
    if bound > MAX_COPY_BOUND:
        raise GuardError(
            f"copy bound (k!)^r * C(m,r) = {bound} exceeds {MAX_COPY_BOUND}")
    edges = sorted(G.edges, key=_edge_key)
    checked: dict[frozenset, bool] = {}
    for combo in itertools.combinations(edges, r):
        union = set()
        disjoint = True
        for e in combo:
            if union & e:
                disjoint = False
                break
            union |= e
        if not disjoint:
            continue
        for parts in _copies_of_matching(combo, k):
            key = frozenset(parts)
            if key in checked:
                continue
            checked[key] = all(frozenset(t) in G.edges
                               for t in itertools.product(*parts))
    return sum(checked.values())


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


def extraction_target(m: int, pattern: Pattern) -> int:
    """Guaranteed pattern-free subgraph size for an m-edge input."""
    if m < 1:
        return 0
    if pattern.k == 2:
        return _ceil_power_ratio(m, pattern.r, pattern.r + 1, 4)
    q = (pattern.r ** pattern.k - 1) // (pattern.r - 1)
    return _ceil_power_ratio(m, q - 1, q, 2 * math.factorial(pattern.k))


def _graph_round(G, r: int, stream: RngStream):
    """One sample-then-delete round; returns a pattern-free subgraph of G."""
    m = G.m
    p = 0.5 * m ** (-1.0 / (r + 1))
    n = G.n
    rows = [0] * n
    for u, v in G.edges():
        if stream.random() < p:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    work = rows[:]
    # enumerate the sampled subgraph's copies in lexicographic (A, B) order
    # and break each still-intact copy by deleting its smallest edge
    for A in itertools.combinations(range(n), r):
        common = rows[A[0]]
        for x in A[1:]:
            common &= rows[x]
        if common.bit_count() < r:
            continue
        cand = [w for w in iter_bits(common) if w > A[0]]
        for B in itertools.combinations(cand, r):
            cross = [(a, b) if a < b else (b, a) for a in A for b in B]
            if all(work[u] >> v & 1 for u, v in cross):
                u, v = min(cross)
                work[u] &= ~(1 << v)
                work[v] &= ~(1 << u)
    if isinstance(G, BipartiteGraph):
        parts = (G.mask(0), G.mask(1), G.mask(2))
        return BipartiteGraph._from_parts(work, parts, G.labels)
    return Graph.from_adjacency(n, work, labels=G.labels, _validate=False)


def _hyper_round(G: KUniformHypergraph, r: int, stream: RngStream):
    k = G.k
    q = (r ** k - 1) // (r - 1)
    p = G.m ** (-1.0 / q) / math.factorial(k)
    sampled = [e for e in sorted(G.edges, key=_edge_key) if stream.random() < p]
    sampled_set = frozenset(sampled)
    work = set(sampled)
    confirmed: set[frozenset] = set()
    for combo in itertools.combinations(sampled, r):
        union = set()
        disjoint = True
        for e in combo:
            if union & e:
                disjoint = False
                break
            union |= e
        if not disjoint:
            continue
        for parts in _copies_of_matching(combo, k):
            key = frozenset(parts)
            if key in confirmed:
                continue
            transversals = [frozenset(t) for t in itertools.product(*parts)]
            if not all(t in sampled_set for t in transversals):
                continue
            confirmed.add(key)
            if all(t in work for t in transversals):
                work.discard(min(transversals, key=_edge_key))
    return KUniformHypergraph(G.n, k, work)


def _check_subgraph(G, H) -> None:
    if isinstance(G, KUniformHypergraph):
        if not H.edges <= G.edges:
            raise AssertionError("extraction produced a non-subgraph")
        return
    for u in range(G.n):
        if H.adj[u] & ~G.adj[u]:
            raise AssertionError("extraction produced a non-subgraph")


def extract_free(G, pattern: Pattern, rng: RngStream,
                 retry_cap: int = 400) -> ExtractionResult:
    """Pattern-free subgraph with at least the guaranteed number of edges.

    Graphs keep each edge with probability (1/2)m^(-1/(r+1)) and must reach
    ceil(m^(r/(r+1))/4) edges; k-graphs use (1/k!)m^(-1/q) with
    q = (r^k-1)/(r-1) and floor ceil(m^((q-1)/q)/(2k!)).  Rounds repeat with
    fresh derived streams until the floor is met (guaranteed in expectation);
    a pattern-free input is returned unchanged.  Every returned subgraph is
    re-verified pattern-free by an independent count.
    """
    target = extraction_target(G.m, pattern)
    if count_pattern(G, pattern) == 0:
        return ExtractionResult(G, 0, target)
    is_hyper = isinstance(G, KUniformHypergraph)
    best = None
    for t in range(1, retry_cap + 1):
        stream = rng.derive("extract", t)
        H = _hyper_round(G, pattern.r, stream) if is_hyper else \
            _graph_round(G, pattern.r, stream)
        if count_pattern(H, pattern) != 0:
            raise AssertionError("deletion left a pattern copy")
        _check_subgraph(G, H)
        if best is None or H.m > best.m:
            best = H
        if H.m >= target:
            return ExtractionResult(H, t, target)
    raise RetryError("extract_free", retry_cap,
                     {"target": target,
                      "best_edges": best.m if best is not None else 0,
                      "best_subgraph": best})


# ---------------------------------------------------------------------------
# Tight instances and the Zarankiewicz-type oracle


def tight_instance(r: int, s: int, m: int) -> TightInstance:
    """Complete bipartite K_{a, a^r} with m = a^(r+1) edges.

    Requires m to be a perfect (r+1)-th power so all part sizes stay exact.
    """
    if r < 2 or s < r:
        raise GuardError("need 2 <= r <= s")
    a = max(1, round(m ** (1.0 / (r + 1))))
    while a > 1 and a ** (r + 1) > m:
        a -= 1
    while (a + 1) ** (r + 1) <= m:
        a += 1
    if a ** (r + 1) != m:
        raise GuardError(f"m={m} is not a perfect {r + 1}-th power")
    if m > MAX_INSTANCE_EDGES:
        raise GuardError(f"instance with {m} edges exceeds {MAX_INSTANCE_EDGES}")
    return TightInstance(complete_bipartite(a, a ** r), r, s, m)


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


def zarankiewicz_oracle(instance, r: Optional[int] = None,
                        s: Optional[int] = None,
                        budget: Optional[int] = None) -> ZarankiewiczResult:
    """Exact maximum edges of a K_{r,s}-free subgraph of a bipartite host.

    Both orientations of the pattern are forbidden.  Branch and bound assigns
    each V vertex a neighborhood mask over U; complete hosts additionally fix
    a nonincreasing mask order, which quotients out the V-permutation
    symmetry.  The prune uses C(d, r) >= d - r + 1: a vertex of degree d
    consumes at least d - (r-1) units of r-subset coverage capacity.  With a
    node budget the result may degrade to a certified bracket.
    """
    if isinstance(instance, TightInstance):
        host, r, s = instance.graph, instance.r, instance.s
    else:
        host = instance
        if r is None or s is None:
            raise GuardError("raw bipartite hosts need explicit r and s")
    if r > s:
        r, s = s, r
    if r < 2:
        raise GuardError("need r >= 2")
    if host.n0:
        raise GuardError("hosts with an overlay part are not supported")
    if host.n1 > host.n2:
        host = host.transpose()
    usize, vsize = host.n1, host.n2
    if usize > ORACLE_MAX_U or vsize > ORACLE_MAX_V:
        raise GuardError(f"oracle limited to |U| <= {ORACLE_MAX_U}, "
                         f"|V| <= {ORACLE_MAX_V}")
    full_u = (1 << usize) - 1
    rank = {u: i for i, u in enumerate(host.v1)}
    nb = [mask_of(rank[u] for u in iter_bits(host.adj[v])) for v in host.v2]
    complete = all(row == full_u for row in nb)

    r_subs = [sum(1 << u for u in A)
              for A in itertools.combinations(range(usize), r)]
    s_active = s != r and s <= usize
    s_subs = [sum(1 << u for u in A)
              for A in itertools.combinations(range(usize), s)] if s_active else []
    cover_r = {msk: tuple(i for i, am in enumerate(r_subs) if am & msk == am)
               for msk in range(full_u + 1)}
    cover_s = {msk: tuple(i for i, am in enumerate(s_subs) if am & msk == am)
               for msk in range(full_u + 1)}
    cap_r, cap_s = s - 1, r - 1
    counts_r = [0] * len(r_subs)
    counts_s = [0] * len(s_subs)
    res = [len(r_subs) * cap_r, len(s_subs) * cap_s]

    desc = sorted(range(full_u + 1), key=lambda msk: (-msk.bit_count(), -msk))
    if complete:
        cands = None  # shared candidate list, monotone index sequence
        shared = desc
    else:
        shared = None
        cands = [[msk for msk in desc if msk & ~nb[i] == 0]
                 for i in range(vsize)]
        suffix_deg = [0] * (vsize + 1)
        for i in range(vsize - 1, -1, -1):
            suffix_deg[i] = suffix_deg[i + 1] + nb[i].bit_count()

    best = 0
    best_rows: list[int] = [0] * vsize
    assignment: list[int] = []
    nodes = 0
    aborted = False
    budget_cap = budget if budget is not None else float("inf")

    def node_bound(pos: int, pc_cap: int) -> int:
        rem = vsize - pos
        ub = rem * (r - 1) + res[0]
        if s_active:
            ub = min(ub, rem * (s - 1) + res[1])
        if complete:
            ub = min(ub, rem * pc_cap)
        else:
            ub = min(ub, suffix_deg[pos])
        return ub

    def apply(msk: int) -> bool:
        for i in cover_r[msk]:
            if counts_r[i] >= cap_r:
                return False
        for j in cover_s[msk]:
            if counts_s[j] >= cap_s:
                return False
        for i in cover_r[msk]:
            counts_r[i] += 1
        for j in cover_s[msk]:
            counts_s[j] += 1
        res[0] -= len(cover_r[msk])
        res[1] -= len(cover_s[msk])
        return True

    def retract(msk: int) -> None:
        for i in cover_r[msk]:
            counts_r[i] -= 1
        for j in cover_s[msk]:
            counts_s[j] -= 1
        res[0] += len(cover_r[msk])
        res[1] += len(cover_s[msk])

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
        row = shared if complete else cands[pos]
        for idx in range(start if complete else 0, len(row)):
            msk = row[idx]
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

    if not aborted:
        upper = best
    else:
        upper = min(usize * vsize, vsize * (r - 1) + len(r_subs) * cap_r)
        if s_active:
            upper = min(upper, vsize * (s - 1) + len(s_subs) * cap_s)
        upper = max(upper, best)
    first, second = _count_krs_sides(best_rows, usize, r, s)
    if first or second:
        raise AssertionError("oracle witness contains a forbidden pattern")
    if sum(row.bit_count() for row in best_rows) != best:
        raise AssertionError("oracle witness size mismatch")
    if isinstance(instance, TightInstance) and best > instance.kst_bound():
        raise AssertionError("oracle exceeded the counting bound")
    return ZarankiewiczResult(size=best, upper=upper, exact=not aborted,
                              nodes=nodes, rows=tuple(best_rows))


# ---------------------------------------------------------------------------
# k-partite instances and the binomial count check


def kpartite_instance(k: int, r: int, n: int) -> KPartiteInstance:
    """Complete k-partite k-graph with |U_i| = n^(r^(i-1)); m = n^q edges."""
    if k < 2 or r < 2 or n < 2:
        raise GuardError("need k >= 2, r >= 2, n >= 2")
    sizes = [n ** (r ** i) for i in range(k)]
    q = (r ** k - 1) // (r - 1)
    m = n ** q
    if m > 10 ** 5:
        raise GuardError(f"instance with {m} edges exceeds desk scale")
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


def kpartite_count_check(H: KUniformHypergraph, parts: Sequence[Sequence[int]],
                         r: int) -> KPartiteCheck:
    """Exact pattern count versus the binomial lower bounds in H.

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
    count = count_pattern(H, Pattern(k, r))
    return KPartiteCheck(count=count, a=a, bound=bound,
                         proof_bound=proof_bound, passed=count >= bound,
                         proof_passed=count >= proof_bound)
