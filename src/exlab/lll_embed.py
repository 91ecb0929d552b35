"""Down-closed hypergraphs, resampling embeddings, and dependent random choice.

A down-closed hypergraph is stored through the lex ranks of its missing
top-level edges, so dense instances cost memory proportional to what was
deleted; random hosts keep the ranks they draw and are never unranked unless
a lower level is queried or the deleted edges are read.  Targets embed
by redrawing the variables of the lowest-index violated event (vertex-pair
collisions first, then non-member edge images) until no event is violated;
every success is re-verified.  The two-color pipeline combines the majority
color, dependent random choice, auxiliary hypergraph construction, and the
resampling embedder, and re-checks the returned copy edge by edge.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .core import (BipartiteGraph, EdgeColoring, Failure, Graph, GuardError,
                   RngStream, bits, iter_bits, mask_of, verified,
                   try_bipartition)

MAX_TOP_LEVEL = 10 ** 8
MAX_ENUMERATION = 10 ** 6
DIRECT_FALLBACK_N = 64


@functools.lru_cache(maxsize=16)
def _colex_columns(n: int, k: int) -> tuple:
    """For j = k..2, the binomials C(a, j) for a in [j-1, n-k+j-1].

    The j-th greedy digit of a k-subset of range(n) in the combinatorial
    number system lies in that window, so the table has (k-1)(n-k+1)
    entries even when k or n-k is small.
    """
    return tuple([math.comb(a, j) for a in range(j - 1, n - k + j)]
                 for j in range(k, 1, -1))


def _unrank_combination(rank: int, n: int, k: int) -> tuple:
    """The rank-th k-subset of range(n) in lexicographic order.

    The lex rank maps to the colex rank C(n,k)-1-rank of the complemented
    set {n-1-c}, whose greedy combinatorial-number-system digits a_i are
    found by one ``bisect_right`` each over a cached column of binomials;
    element i is n-1-a_i.  The last digit is the remainder itself.
    """
    rest = math.comb(n, k) - 1 - rank
    out = []
    for j, column in zip(range(k, 1, -1), _colex_columns(n, k)):
        a = bisect.bisect_right(column, rest) + j - 2
        rest -= column[a - j + 1]
        out.append(n - 1 - a)
    if k:
        out.append(n - 1 - rest)
    return tuple(out)


def _rank_combination(t: Sequence[int], n: int, k: int) -> int:
    """Lex rank of the sorted k-subset t of range(n); inverts
    ``_unrank_combination``.

    The complement {n-1-c} has colex rank sum_i C(n-1-t[i], k-i), and the
    lex rank is C(n,k)-1 minus that.
    """
    rest = 0
    for i, c in enumerate(t):
        rest += math.comb(n - 1 - c, k - i)
    return math.comb(n, k) - 1 - rest


class DownClosedHypergraph:
    """k-uniform top level minus a deleted set; lower levels by containment.

    An l-subset (l <= k) is a member iff it lies inside some surviving top
    edge, which keeps the edge set down-closed by construction.  The
    constructor takes the deleted top edges as their lex ranks (the order of
    ``_unrank_combination``), each in [0, C(N, k)), and stores them as the
    frozenset ``deleted_ranks``, so a top-level query looks up one rank.  A
    lower-level query at level l reads a count, per l-set, of the deleted
    top edges containing it; that index is built from the deleted edges on
    the first query at level l.
    """

    __slots__ = ("N", "k", "deleted_ranks", "_superset_counts")

    def __init__(self, N: int, k: int, ranks: Iterable[int] = ()):
        if not 1 <= k <= N:
            raise GuardError("need 1 <= k <= N")
        ranks = frozenset(ranks)
        if ranks and (min(ranks) < 0 or max(ranks) >= math.comb(N, k)):
            raise ValueError(f"deleted rank outside [0, C({N},{k}))")
        self.N = N
        self.k = k
        self.deleted_ranks = ranks
        self._superset_counts = {}

    @property
    def deleted(self) -> frozenset:
        """The deleted top edges as sorted k-tuples (unranked on each read)."""
        return frozenset(_unrank_combination(r, self.N, self.k)
                         for r in self.deleted_ranks)

    def missing_fraction(self) -> Fraction:
        return Fraction(len(self.deleted_ranks), math.comb(self.N, self.k))

    def member(self, S: Iterable) -> bool:
        t = tuple(sorted(S))
        level = len(t)
        if not 1 <= level <= self.k:
            raise GuardError(f"membership defined for 1..{self.k}-sets")
        if len(set(t)) != level or t[0] < 0 or t[-1] >= self.N:
            raise ValueError(f"{t} is not a vertex subset")
        if level == self.k:
            return (_rank_combination(t, self.N, self.k)
                    not in self.deleted_ranks)
        # member iff not every extension to a k-set was deleted
        counts = self._superset_counts.get(level)
        if counts is None:
            counts = self._superset_counts[level] = collections.Counter(
                s for e in self.deleted
                for s in itertools.combinations(e, level))
        return counts[t] < math.comb(self.N - level, self.k - level)

    def __repr__(self) -> str:
        return (f"DownClosedHypergraph(N={self.N}, k={self.k}, "
                f"missing={len(self.deleted_ranks)})")


def random_dense_dch_guard(N: int, k: int, delta) -> int:
    """C(N, k), the top-level size of ``random_dense_dch(N, k, delta)``;
    GuardError unless 1 <= k <= N, C(N, k) <= MAX_TOP_LEVEL and
    0 <= delta < 1.

    C(N, j) >= C(2j, j) >= 2^j for j = min(k, N - k), so a j of
    MAX_TOP_LEVEL's bit length or more is rejected without the binomial.
    """
    if not 1 <= k <= N:
        raise GuardError(f"need 1 <= k <= N, got k={k}, N={N}")
    j = min(k, N - k)
    if j >= MAX_TOP_LEVEL.bit_length() or math.comb(N, j) > MAX_TOP_LEVEL:
        raise GuardError(f"C(N,k) for N={N}, k={k} exceeds {MAX_TOP_LEVEL}")
    if not 0 <= Fraction(delta) < 1:
        raise GuardError(f"deletion fraction {delta} outside [0, 1)")
    return math.comb(N, j)


def random_dense_dch(N: int, k: int, delta, rng: RngStream) -> DownClosedHypergraph:
    """All k-subsets minus exactly floor(delta * C(N,k)) uniform deletions.

    The deletions are drawn as lex ranks and stored as drawn, never unranked.
    """
    total = random_dense_dch_guard(N, k, delta)
    count = int(Fraction(delta) * total)
    return DownClosedHypergraph(N, k, rng.sample(range(total), count))


class TargetHypergraph:
    """Hypergraph to embed: n vertices, edges of size 1..k, dense indexing."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable):
        es = set()
        for e in edges:
            fe = frozenset(e)
            if not fe:
                raise ValueError("edges must be nonempty")
            if any(not 0 <= v < n for v in fe):
                raise ValueError(f"edge {sorted(fe)} out of range")
            es.add(fe)
        self.n = n
        self.edges = tuple(sorted(es, key=lambda e: tuple(sorted(e))))

    @property
    def max_degree(self) -> int:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return max(deg, default=0)

    @property
    def max_edge_size(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def __repr__(self) -> str:
        return f"TargetHypergraph(n={self.n}, m={len(self.edges)})"


def neighborhood_hypergraph(g: Graph) -> TargetHypergraph:
    """Distinct nonempty vertex neighborhoods of g as hyperedges over V(g)."""
    return TargetHypergraph(g.n, {frozenset(bits(g.adj[v]))
                                  for v in range(g.n) if g.adj[v]})


@dataclass(frozen=True)
class EmbeddingResult:
    """Injective vertex map preserving edge membership; rounds = resamples."""

    mapping: tuple
    rounds: int


def _in_regime(H: TargetHypergraph, G: DownClosedHypergraph) -> bool:
    """Exact check of N >= 16n and delta <= 2^(-8kn/N) / (4k*Delta)."""
    if G.N < 16 * H.n:
        return False
    delta = G.missing_fraction()
    dmax = H.max_degree
    if delta == 0 or dmax == 0:
        return True
    lhs = (delta * 4 * G.k * dmax) ** G.N * 2 ** (8 * G.k * H.n)
    return lhs <= 1


def resample_embed_guard(edge_size: int, k: int) -> None:
    """GuardError when target edges of ``edge_size`` vertices cannot map
    into members of a k-uniform down-closed host (edge_size > k)."""
    if edge_size > k:
        raise GuardError(f"target edge size {edge_size} exceeds host "
                         f"uniformity {k}")


def resample_embed(H: TargetHypergraph, G: DownClosedHypergraph,
                   rng: RngStream,
                   round_cap: int = 10000) -> Union[EmbeddingResult, Failure]:
    """Embed H into G by resampling the lowest-index violated event.

    Events, in order: one collision event per vertex pair (images equal), then
    one membership event per edge (distinct images, image not a member).
    Resampling redraws only the offending event's own vertex images.  Success
    is re-verified by ``verify_embedding``.
    """
    if H.n > G.N:
        return Failure("resample_embed", "target larger than host",
                       {"n": H.n, "N": G.N})
    resample_embed_guard(H.max_edge_size, G.k)
    if not _in_regime(H, G):
        warnings.warn("resample_embed outside the recommended regime; "
                      "termination is empirical", RuntimeWarning, stacklevel=2)
    pairs = list(itertools.combinations(range(H.n), 2))
    f = [rng.randrange(G.N) for _ in range(H.n)]
    performed = 0
    while True:
        events = _violations(H, G, f, pairs)
        viol = next(events, None)
        if viol is None:
            return verified(verify_embedding, H, G,
                            EmbeddingResult(tuple(f), performed))
        if performed >= round_cap:
            return Failure("resample_embed", "round cap exhausted",
                           {"rounds": performed, "violated": (viol, *events)})
        if viol[0] == "collision":
            f[viol[1]] = rng.randrange(G.N)
            f[viol[2]] = rng.randrange(G.N)
        else:
            for v in viol[1]:
                f[v] = rng.randrange(G.N)
        performed += 1


def _violations(H: TargetHypergraph, G: DownClosedHypergraph, f, pairs):
    """The violated events of the map f, in index order: ("collision", u, v)
    for each pair with equal images, then ("non_member", e) for each edge,
    as a sorted tuple, whose distinct images are not a member of G."""
    for u, v in pairs:
        if f[u] == f[v]:
            yield ("collision", u, v)
    for e in H.edges:
        img = {f[v] for v in e}
        if len(img) == len(e) and not G.member(img):
            yield ("non_member", tuple(sorted(e)))


def _injection_defect(mapping: Sequence[int], n: int, N: int):
    """None, or ("range", v) or ("collision", u, v) for the first vertex v
    that ``mapping`` sends out of range(N) or onto an earlier u's image."""
    if len(mapping) != n:
        raise ValueError(f"mapping has {len(mapping)} entries, not {n}")
    first = {}
    for v, x in enumerate(mapping):
        if not 0 <= x < N:
            return ("range", v)
        if x in first:
            return ("collision", first[x], v)
        first[x] = v
    return None


def verify_embedding(H: TargetHypergraph, G: DownClosedHypergraph,
                     emb: EmbeddingResult):
    """(ok, reason) for ``emb.mapping`` as an embedding of H into G: reason
    is an ``_injection_defect`` or ("non_member", e) for the first edge e of
    H, as a sorted tuple, whose image is not a member of G."""
    defect = _injection_defect(emb.mapping, H.n, G.N)
    if defect is not None:
        return False, defect
    for e in H.edges:
        if not G.member({emb.mapping[v] for v in e}):
            return False, ("non_member", tuple(sorted(e)))
    return True, None


@dataclass(frozen=True)
class DrcParams:
    """Dependent-random-choice parameters; all checks use exact arithmetic."""

    eps: Fraction
    k: int
    b: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.k < 1 or self.n < 1 or self.eps <= 0 or self.b <= 0:
            raise GuardError("DrcParams need k, n >= 1 and eps, b > 0")


@dataclass(frozen=True)
class DrcResult:
    """A subset of V1 passing both counted clauses, with its statistics."""

    U: tuple
    tries: int
    bad_k_sets: int
    bad_bound: Fraction


def drc_subset_guard(N: int, params: DrcParams) -> None:
    """GuardError unless eps <= 1 and the part size meets the floor
    N >= eps^-k * max(bn, 4k) of ``drc_subset``.

    The density of B is at most 1, so eps > 1 can never hold.  With
    eps <= 1 the floor is at least 4k, which is checked first;
    ``_scaled_below`` then compares N * eps^k with the floor exactly,
    without writing eps^k out unless the two sides nearly tie.
    """
    k, n, eps, b = params.k, params.n, params.eps, params.b
    if eps > 1:
        raise GuardError(f"eps {eps} above 1, the largest density")
    if 4 * k > N or _scaled_below(N, eps, k, Fraction(max(b * n, 4 * k))):
        raise GuardError(f"part size {N} below eps^-k * max(bn, 4k) for "
                         f"eps={eps}, k={k}, b={b}, n={n}")


def _scaled_below(N: int, eps: Fraction, k: int, floor: Fraction) -> bool:
    """Whether N * eps^k < floor, exactly, without taking eps^k in full
    while its bounds decide.  With eps = a/c this compares N * d * a^k with
    f * c^k for floor = f/d, bounding each power between two floats of
    ``bits`` bits; the bounds are compared by bit length first.  Squaring
    doubles a bound's relative error, so ``bits`` starts past the bit
    length of k, where one round decides unless the sides nearly tie.
    Each undecided round doubles ``bits``; once the powers fit in ``bits``
    the bounds are exact, so the loop ends."""
    left, right = N * floor.denominator, floor.numerator
    bits = 64 + k.bit_length()
    while True:
        alo, ahi, ae = _pow_bounds(eps.numerator, k, bits)
        clo, chi, ce = _pow_bounds(eps.denominator, k, bits)
        if _less(left * ahi, ae, right * clo, ce):
            return True
        if not _less(left * alo, ae, right * chi, ce):
            return False
        bits *= 2


def _pow_bounds(x: int, k: int, bits: int) -> tuple:
    """(lo, hi, e) with lo * 2^e <= x^k <= hi * 2^e, k >= 1, by squaring
    with lo rounded down and hi rounded up to ``bits`` bits."""
    lo = hi = 1
    base_lo = base_hi = x
    e = base_e = 0
    while k:
        if k & 1:
            lo, hi, e = _round_bounds(lo * base_lo, hi * base_hi,
                                      e + base_e, bits)
        k >>= 1
        if k:
            base_lo, base_hi, base_e = _round_bounds(
                base_lo * base_lo, base_hi * base_hi, 2 * base_e, bits)
    return lo, hi, e


def _round_bounds(lo: int, hi: int, e: int, bits: int) -> tuple:
    shift = hi.bit_length() - bits
    if shift <= 0:
        return lo, hi, e
    return lo >> shift, -(-hi >> shift), e + shift


def _less(m1: int, e1: int, m2: int, e2: int) -> bool:
    """m1 * 2^e1 < m2 * 2^e2 for m1, m2 >= 0, shifting only when the two
    sides have equal bit lengths."""
    if not m1 or not m2:
        return m1 < m2
    l1, l2 = m1.bit_length() + e1, m2.bit_length() + e2
    if l1 != l2:
        return l1 < l2
    e = min(e1, e2)
    return m1 << (e1 - e) < m2 << (e2 - e)


def drc_subset(B: BipartiteGraph, params: DrcParams, rng: RngStream,
               retry_cap: int = 200) -> Union[DrcResult, Failure]:
    """Common neighborhood of k random V2 vertices, retried until it verifies.

    Clause 1: 2|U|^k >= (eps^k N)^k, i.e. |U| >= 2^(-1/k) eps^k N.  Clause 2:
    the number of k-subsets of U with fewer than n common neighbors in V2 is
    below 2^(k+1) b^(-k) C(|U|, k).  Both clauses are verified by direct
    counting on every attempt.
    """
    if B.n1 != B.n2:
        raise GuardError("parts must have equal size")
    N = B.n1
    drc_subset_guard(N, params)
    k, n, eps, b = params.k, params.n, params.eps, params.b
    if B.density() < eps:
        raise GuardError(f"density {B.density()} below eps {eps}")
    mask1, mask2 = B.mask(1), B.mask(2)
    v2 = list(B.v2)
    size_rhs = (eps ** k * N) ** k
    best = None
    for t in range(1, retry_cap + 1):
        picks = [rng.choice(v2) for _ in range(k)]
        common = mask1
        for p in picks:
            common &= B.adj[p]
        U = bits(common)
        stats = {"size": len(U), "tries": t}
        if 2 * Fraction(len(U)) ** k < size_rhs:
            if best is None or stats["size"] > best["size"]:
                best = stats
            continue
        thin = []
        _thin_k_set_ranks([B.adj[u] for u in U], 0, k, mask2, n, 0, thin)
        bad = len(thin)
        bound = Fraction(2 ** (k + 1), 1) / b ** k * math.comb(len(U), k)
        stats["bad"] = bad
        if bad < bound:
            return DrcResult(tuple(U), t, bad, bound)
        if best is None or stats["size"] > best["size"]:
            best = stats
    return Failure("drc_subset", "retry cap exhausted", best or {})


@dataclass(frozen=True)
class AuxPair:
    """Embedding target over H's V1 side and host hypergraph over U.

    Target index i is the H vertex ``H.v1[i]``; ``u_vertices[j]`` is the G
    vertex behind host index j.
    """

    target: TargetHypergraph
    dch: DownClosedHypergraph
    u_vertices: tuple


def _thin_k_set_ranks(rows: Sequence[int], start: int, left: int,
                      common: int, n: int, rank: int, out: list) -> int:
    """Append to ``out`` the lex ranks of the thin k-sets of row indices.

    Walks, in lex order, every way to extend the current prefix (whose rows
    AND to ``common``) by ``left`` indices from ``range(start, len(rows))``;
    the first extension has lex rank ``rank``.  A k-set is thin when its
    rows share fewer than n bits.  Each prefix's AND is taken once and
    shared by all its extensions.  Returns the rank after the last one.
    """
    for i in range(start, len(rows) - left + 1):
        mask = common & rows[i]
        if left > 1:
            rank = _thin_k_set_ranks(rows, i + 1, left - 1, mask, n, rank, out)
        else:
            if mask.bit_count() < n:
                out.append(rank)
            rank += 1
    return rank


def build_aux_pair(H: BipartiteGraph, U: Sequence[int], G: BipartiteGraph,
                   n: int) -> AuxPair:
    """Auxiliary pair: distinct V2 neighborhoods of H as target edges, and
    k-subsets of U with at least n common G-neighbors in G's V2 as host top
    edges."""
    k = max(map(H.degree, H.v2), default=0)
    if k < 1:
        raise GuardError("the V2 side of H has no edges")
    pos = {v: i for i, v in enumerate(H.v1)}
    mask1 = H.mask(1)
    edges = {frozenset(pos[x] for x in bits(H.adj[w] & mask1))
             for w in H.v2}
    edges.discard(frozenset())
    target = TargetHypergraph(H.n1, edges)
    u = tuple(sorted(U))
    if len(u) < k:
        raise GuardError("U smaller than the uniformity k")
    if math.comb(len(u), k) > MAX_ENUMERATION:
        raise GuardError("U too large for top-level enumeration")
    deleted = []
    _thin_k_set_ranks([G.adj[x] for x in u], 0, k, G.mask(2), n, 0, deleted)
    return AuxPair(target, DownClosedHypergraph(len(u), k, deleted), u)


@dataclass(frozen=True)
class PipelineResult:
    """Monochromatic copy of H: H vertex i sits at host vertex mapping[i]."""

    mapping: tuple
    color: int
    drc_tries: int
    resample_rounds: int


def _as_bipartite(H) -> BipartiteGraph:
    """A bipartite target as a BipartiteGraph on its own vertex ids."""
    if isinstance(H, BipartiteGraph):
        return H
    sides = try_bipartition(H)
    if sides is None:
        raise GuardError("H is not bipartite")
    return BipartiteGraph.induced(H, mask_of(sides[0]), mask_of(sides[1]))


def _direct_embed(rows_maj: Sequence[int], N: int, hadj: Sequence[int],
                  hn: int) -> Optional[list]:
    """Deterministic backtracking search for a copy of H in one color class."""
    order = sorted(range(hn), key=lambda v: -hadj[v].bit_count())
    mapping = [-1] * hn
    used = set()

    def place(i: int) -> bool:
        if i == hn:
            return True
        v = order[i]
        need = [w for w in bits(hadj[v]) if mapping[w] >= 0]
        for cand in range(N):
            if cand in used:
                continue
            if all(rows_maj[mapping[w]] >> cand & 1 for w in need):
                mapping[v] = cand
                used.add(cand)
                if place(i + 1):
                    return True
                mapping[v] = -1
                used.discard(cand)
        return False

    return mapping if place(0) else None


def bip_ramsey_pipeline(coloring: EdgeColoring, H, rng: RngStream,
                        drc_retry: int = 200,
                        round_cap: int = 10000) -> Union[PipelineResult, Failure]:
    """Find a monochromatic copy of a bipartite H in a 2-colored complete host.

    Splits the host into fixed halves, takes the majority color across the
    split, extracts U by dependent random choice, embeds the V1 side into the
    auxiliary hypergraph pair by resampling, and places the V2 side greedily
    inside common neighborhoods.  The returned copy is re-verified against
    the original coloring edge by edge.  Hosts too small for the parameter
    preconditions fall back to a direct backtracking search in the globally
    majority color.
    """
    host = coloring.graph
    if coloring.r != 2:
        raise GuardError("pipeline needs a 2-coloring")
    if not isinstance(host, Graph) or host.m != math.comb(host.n, 2):
        raise GuardError("pipeline needs a complete host graph")
    N = host.n
    h_bip = _as_bipartite(H)
    hadj, hn = h_bip.adj, h_bip.n
    if hn > N:
        return Failure("params", "target larger than host", {"n": hn, "N": N})
    da = max(map(h_bip.degree, h_bip.v1), default=0)
    db = max(map(h_bip.degree, h_bip.v2), default=0)
    # orient H so that V2 is the side with the smaller maximum degree
    if db > da:
        h_bip, da, db = h_bip.transpose(), db, da
    k, big = max(db, 1), max(da, 1)

    half = N // 2
    mask_a = (1 << half) - 1
    mask_b = ((1 << half) - 1) << half
    counts = [sum((coloring.rows[c][u] & mask_b).bit_count()
                  for u in range(half)) for c in range(2)]
    majority = 0 if counts[0] >= counts[1] else 1
    rows_maj = coloring.rows[majority]

    eps = Fraction(1, 2)
    cap_b = Fraction(half) * eps ** k / hn if hn else Fraction(0)
    paper_b = Fraction(16 * big ** (1.0 / k)).limit_denominator(10 ** 6)
    b = min(paper_b, cap_b)
    feasible = (b > 0 and half >= 1
                and Fraction(half) * eps ** k >= max(Fraction(b * hn),
                                                     Fraction(4 * k)))
    if not feasible:
        if N > DIRECT_FALLBACK_N:
            return Failure("params", "host too small for the parameter "
                           "regime and too large for direct search",
                           {"N": N, "n": hn})
        global_counts = [coloring.class_size(c) for c in range(2)]
        majority = 0 if global_counts[0] >= global_counts[1] else 1
        mapping = _direct_embed(coloring.rows[majority], N, hadj, hn)
        if mapping is None:
            return Failure("direct_embed",
                           "no copy in the majority color", {"N": N})
        return verified(verify_copy, coloring, H,
                        PipelineResult(tuple(mapping), majority, 0, 0))

    if b < paper_b:
        warnings.warn("quality parameter b capped below 16*Delta^(1/k) to fit "
                      "the host size", RuntimeWarning, stacklevel=2)
    bip_rows = [rows_maj[u] & mask_b for u in range(half)]
    bip_rows += [rows_maj[v] & mask_a for v in range(half, 2 * half)]
    b_maj = BipartiteGraph._from_parts(bip_rows, (mask_a, mask_b))

    params = DrcParams(eps, k, b, hn)
    drc = drc_subset(b_maj, params, rng, retry_cap=drc_retry)
    if isinstance(drc, Failure):
        return drc

    aux = build_aux_pair(h_bip, drc.U, b_maj, hn)

    emb = resample_embed(aux.target, aux.dch, rng, round_cap=round_cap)
    if isinstance(emb, Failure):
        return emb

    mapping = [-1] * hn
    used = set()
    for i, hv in enumerate(h_bip.v1):
        mapping[hv] = aux.u_vertices[emb.mapping[i]]
        used.add(mapping[hv])
    for hv in h_bip.v2:
        nbrs = [mapping[w] for w in bits(hadj[hv])]
        if nbrs:
            cand = mask_b
            for img in nbrs:
                cand &= b_maj.adj[img]
        else:
            cand = mask_b  # degree-0 vertices take any unused host vertex
        choice = next((c for c in iter_bits(cand) if c not in used), None)
        if choice is None:
            return Failure("placement", "no unused common neighbor",
                           {"vertex": hv})
        mapping[hv] = choice
        used.add(choice)

    return verified(verify_copy, coloring, H, PipelineResult(
        tuple(mapping), majority, drc.tries, emb.rounds))


def verify_copy(coloring: EdgeColoring, H, result: PipelineResult):
    """(ok, reason) for ``result.mapping`` as a copy of H in colour
    ``result.color``: reason is an ``_injection_defect`` or ("color", (u, v))
    for the first edge u < v of H whose image has another colour."""
    mapping = result.mapping
    defect = _injection_defect(mapping, H.n, coloring.graph.n)
    if defect is not None:
        return False, defect
    for u, row in enumerate(H.adj):
        for v in iter_bits(row >> (u + 1) << (u + 1)):
            if coloring.color_of(mapping[u], mapping[v]) != result.color:
                return False, ("color", (u, v))
    return True, None
