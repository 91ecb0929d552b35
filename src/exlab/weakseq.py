"""Weakly (bi-)complete r-sequences and small clique minors in dense graphs.

The sequence pipeline runs: equitable bipartition, degree filter, random
cover partition into r-blocks, an auxiliary block-vs-vertex incidence graph,
a second filter and partition chosen by a density case split, and an exact
K_{t,t} search in the final incidence graph.  Every filter and partition
asserts its own counted clause; witnesses are re-verified from scratch.

The minor pipeline combines the same machinery with two rounds of
dependent random choice for 4-edge path systems, then connects each r-set
through fresh internal vertices.  The fixed constants are module
constants: CLEANUP_DIV, SPLIT_EDGE_DIV, SPLIT_MINDEG_DIV, Z_DENSITY_DIV and
W_DENSITY_DIV.  ``MinorConstants`` holds the rest, ``xprime_div`` and the
path-extraction ``PathsParams`` (x_frac_div, budget_coeff, min_p2n): its
defaults are the published constants, and the "desk" preset of ``PRESETS``
keeps the guarantees non-vacuous on small instances.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (BipartiteGraph, Failure, Graph, GuardError, RngStream,
                   bit_columns, bits, iter_bits, mask_of,
                   random_equitable_bipartition, verified)

ORACLE_MAX_N = 12
KTT_BUDGET = 10 ** 6
# minor pipeline: degree cleanup at pn/8, split cross degree pn/32 and cross
# edges pn^2/32, X'-Z' density p/64, W-Y density p/32
CLEANUP_DIV = 8
SPLIT_EDGE_DIV = 32
SPLIT_MINDEG_DIV = 32
Z_DENSITY_DIV = 64
W_DENSITY_DIV = 32


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class WeakSequence:
    """Disjoint r-sets with an edge between every pair (s_sets[i],
    t_sets[j]).

    ``kind`` is always "bicomplete"; it stays a field because it enters
    every sequence digest.
    """

    kind: str
    r: int
    t: int
    s_sets: tuple
    t_sets: Optional[tuple] = None
    stats: Optional[dict] = None


@dataclass(frozen=True)
class CoverPartition:
    """Partition of V1 into r-blocks plus its exact uncovered-pair fraction."""

    blocks: tuple
    fraction: Fraction
    threshold: Fraction
    tries: int
    met: bool


@dataclass(frozen=True)
class SeqParams:
    """Input parameters with derived quantities and the detected regime."""

    n: int
    p: Fraction
    r: int
    t: int
    rho: Fraction
    part_floor: Fraction
    delta_target: Fraction
    regime: int


@dataclass(frozen=True)
class PathsParams:
    """Constants of the 4-edge-path extraction; defaults fit large hosts."""

    x_frac_div: int = 50
    budget_coeff: Fraction = Fraction(1, 10 ** 9)
    min_p2n: int = 1600


@dataclass(frozen=True)
class PathsResult:
    """X plus the per-pair disjoint-path budget certified for it."""

    X: tuple
    budget: int
    tries: int


@dataclass(frozen=True)
class MinorConstants:
    """Constants of the minor pipeline that a preset sets; the defaults are
    the published constants, which fit large hosts."""

    xprime_div: int = 400
    paths: PathsParams = field(default_factory=PathsParams)


@dataclass(frozen=True)
class MinorModel:
    """Branch sets of a clique minor with their size and diameter caps."""

    branch_sets: tuple
    size_cap: int
    diameter_cap: Optional[int]
    stats: Optional[dict] = None


PRESETS = {
    "desk": MinorConstants(4, PathsParams(3, Fraction(1, 100), 30)),
}


def load_preset(name: str) -> MinorConstants:
    """The named constant set of ``PRESETS``; GuardError for another name."""
    if name not in PRESETS:
        raise GuardError(f"unknown preset {name!r}")
    return PRESETS[name]


# ---------------------------------------------------------------------------
# Parameters and regimes


def seq_params(n: int, p, r: int, t: int) -> SeqParams:
    """Derived quantities plus which (if any) parameter regime holds.

    Regime membership mixes exact rational checks with float evaluations of
    the transcendental bounds; it is recorded for diagnostics only and never
    gates a verifier.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise GuardError("density must lie in (0, 1]")
    if r < 1 or t < 1:
        raise GuardError("need r, t >= 1")
    rho = (1 - p / 2) ** r
    part_floor = p * n / (16 * r)
    delta_target = Fraction(math.exp(-float(p) * r * r / 8)).limit_denominator(10 ** 12)
    pf, rr = float(p), float(r)
    ln = math.log(n) if n > 1 else 0.0
    regime = 0
    if p ** 3 * n >= 1 and p * r * r <= 4 and pf * rr * rr < 32:
        if t <= ln / (4 * math.log(32 / (pf * rr * rr))):
            regime = 1
    if regime == 0 and p ** 5 * n >= 1 and 16 <= p * r * r and pf * rr * rr <= ln:
        if t <= math.exp(pf * rr * rr / 8) * ln / 16:
            regime = 2
    if regime == 0 and p * r * r >= 16 * Fraction(ln).limit_denominator(10 ** 6):
        if t <= min(pf * n / (64 * math.sqrt(ln)) if ln else 0.0, n / (2 * rr)):
            regime = 3
    return SeqParams(n, p, r, t, rho, part_floor, delta_target, regime)


def regime2_order(n: int, p, r: int) -> int:
    """Largest t of the middle regime: floor(e^(p r^2 / 8) * log(n) / 16)."""
    pf = float(Fraction(p))
    return max(1, math.floor(math.exp(min(50.0, pf * r * r / 8))
                             * math.log(n) / 16))


# ---------------------------------------------------------------------------
# Filters, partitions, and the exact K_{t,t} search


def degree_filter(B: BipartiteGraph, mode: str, value) -> tuple:
    """High-degree subset of V2; both output clauses are asserted exactly.

    sparse(p): needs density >= p, keeps degrees > p|V1|/2, returns at least
    p|V2|/2 vertices.  dense(q): needs density >= 1-q, keeps degrees >
    (1-2q)|V1|, returns at least |V2|/2 vertices.
    """
    value = Fraction(value)
    n1, n2 = B.n1, B.n2
    if n1 == 0 or n2 == 0:
        raise GuardError("both parts must be nonempty")
    mask1 = B.mask(1)
    if mode == "sparse":
        if B.density() < value:
            raise GuardError(f"density {B.density()} below {value}")
        cut = value * n1 / 2
        floor = value * n2 / 2
    elif mode == "dense":
        if B.density() < 1 - value:
            raise GuardError(f"density {B.density()} below 1 - {value}")
        cut = (1 - 2 * value) * n1
        floor = Fraction(n2, 2)
    else:
        raise ValueError(f"unknown filter mode {mode!r}")
    # an integer degree exceeds cut exactly when it exceeds floor(cut)
    cut, adj = math.floor(cut), B.adj
    kept = tuple([b for b in B.v2 if (adj[b] & mask1).bit_count() > cut])
    if len(kept) < floor:
        raise AssertionError("degree filter output below its size clause")
    return kept


def _block_reach(B: BipartiteGraph, blocks) -> list:
    """Row j holds the V2 vertices that block j sees, the OR of its members'
    rows; no other code decides whether a block sees a vertex."""
    reach = []
    for blk in blocks:
        row = 0
        for u in blk:
            row |= B.adj[u]
        reach.append(row)
    return reach


def cover_partition(B: BipartiteGraph, r: int, rng: RngStream,
                    retry_cap: int = 200) -> CoverPartition:
    """Random partition of V1 into r-blocks, accepted when the fraction of
    (block, V2-vertex) pairs without an edge is at most (1 - p_min)^r.

    p_min is the measured minimum V2-degree over |V1|.  When the cap runs
    out, the best partition is returned with met=False.
    """
    n1, n2 = B.n1, B.n2
    if n1 == 0 or n2 == 0:
        raise GuardError("both parts must be nonempty")
    if n1 % r:
        raise GuardError(f"r = {r} does not divide |V1| = {n1}")
    mask1, adj = B.mask(1), B.adj
    p_min = Fraction(min([(adj[b] & mask1).bit_count() for b in B.v2]), n1)
    threshold = (1 - p_min) ** r
    d = n1 // r
    order = list(B.v1)
    best = None
    for tries in range(1, max(retry_cap, 1) + 1):
        rng.shuffle(order)
        blocks = tuple(tuple(sorted(order[i * r:(i + 1) * r]))
                       for i in range(d))
        seen = sum(map(int.bit_count, _block_reach(B, blocks)))
        fraction = Fraction(d * n2 - seen, d * n2)
        cand = CoverPartition(blocks, fraction, threshold, tries,
                              fraction <= threshold)
        if cand.met:
            return cand
        if best is None or fraction < best.fraction:
            best = cand
    return best


_EXHAUSTED = object()


def _ktt_search(adj, order: list, t: int, idx: int, chosen: list,
                common: int, spent: list, budget: int):
    """Extend chosen by vertices from order[idx:] while their common
    neighborhood keeps at least t vertices; first K_{t,t} found or None.

    Every tried extension adds 1 to ``spent[0]``; once ``budget`` would be
    passed the search returns ``_EXHAUSTED``, which every caller passes up.

    Module level rather than a closure: a self-referencing closure would
    keep its graph alive until the cycle collector runs."""
    if len(chosen) == t:
        right = []
        for b in iter_bits(common):
            right.append(b)
            if len(right) == t:
                break
        return tuple(chosen), tuple(right)
    for i in range(idx, len(order)):
        if len(chosen) + len(order) - i < t:
            break
        if spent[0] == budget:
            return _EXHAUSTED
        spent[0] += 1
        nxt = common & adj[order[i]]
        if nxt.bit_count() < t:
            continue
        chosen.append(order[i])
        hit = _ktt_search(adj, order, t, i + 1, chosen, nxt, spent, budget)
        if hit is not None:
            return hit
        chosen.pop()
    return None


def find_ktt_guard(t: int) -> None:
    """GuardError unless t >= 1; the work budget of ``find_ktt``, not a cap
    on t, bounds the search."""
    if t < 1:
        raise GuardError(f"t must be >= 1, got {t}")


def find_ktt(T: BipartiteGraph, t: int):
    """Exact search for K_{t,t}: t-subsets (L, R) with all t^2 edges.

    Branches over V1 in descending degree order, pruning on the common
    neighborhood size; a returned witness is re-verified edge by edge, and
    None certifies absence because the search is complete.  The search
    tries at most ``KTT_BUDGET`` extensions, a count rather than a time so
    that replay stays exact; past it the answer is
    ``Failure("find_ktt", "search budget exhausted", ...)``.
    """
    find_ktt_guard(t)
    if T.n1 < t or T.n2 < t:
        return None
    order = sorted(T.v1, key=lambda v: (-T.degree(v), v))
    spent = [0]
    wit = _ktt_search(T.adj, order, t, 0, [], T.mask(2), spent, KTT_BUDGET)
    if wit is _EXHAUSTED:
        return Failure("find_ktt", "search budget exhausted",
                       {"nodes": spent[0], "t": t})
    if wit is None:
        return None
    return verified(verify_ktt, T, t,
                    (tuple(sorted(wit[0])), tuple(sorted(wit[1]))))


def verify_ktt(T: BipartiteGraph, t: int, witness):
    """(ok, reason) for ``witness = (L, R)`` as a K_{t,t} of T: reason is
    ("side", i) when side i (0 for L) is not t distinct vertices of part
    V(i+1), or ("missing", (u, v)) for the first absent edge."""
    for i, side in enumerate(witness):
        m = mask_of(side)
        if len(side) != t or m.bit_count() != t or m & ~T.mask(i + 1):
            return False, ("side", i)
    for u in witness[0]:
        for v in witness[1]:
            if not T.has_edge(u, v):
                return False, ("missing", (u, v))
    return True, None


# ---------------------------------------------------------------------------
# Sequence verification


def _sets_joined(g: Graph, a, b) -> bool:
    mb = mask_of(b)
    return any(g.adj[u] & mb for u in a)


def verify_sequence(g: Graph, w: WeakSequence):
    """Exhaustive invariant check; returns (ok, first violation or None)."""
    if w.kind != "bicomplete":
        raise ValueError(f"unknown kind {w.kind!r}")
    if w.t_sets is None or len(w.t_sets) != len(w.s_sets):
        raise ValueError("bicomplete sequences need matching T-sets")
    if len(w.s_sets) != w.t:
        return False, ("order", len(w.s_sets))
    labeled = [((name, i), frozenset(s))
               for name, sets in (("S", w.s_sets), ("T", w.t_sets))
               for i, s in enumerate(sets)]
    for tag, s in labeled:
        if len(s) != w.r:
            return False, ("size", tag)
        if any(not 0 <= v < g.n for v in s):
            raise ValueError(f"set {tag} has out-of-range vertices")
    for (tag1, s1), (tag2, s2) in itertools.combinations(labeled, 2):
        if s1 & s2:
            return False, ("overlap", tag1, tag2)
    for i in range(w.t):
        for j in range(w.t):
            if not _sets_joined(g, w.s_sets[i], w.t_sets[j]):
                return False, ("pair", i, j)
    return True, None


# ---------------------------------------------------------------------------
# The bicomplete sequence pipeline


def _incidence_graph(B: BipartiteGraph, blocks) -> BipartiteGraph:
    """V2 of B against fresh block vertices B.n + j: v ~ block j iff some
    edge of v lands in blocks[j].  Block j's row is its reach row, and v's
    row is column v of the reach rows.  V2 keeps B's vertex ids."""
    d = len(blocks)
    reach = _block_reach(B, blocks)
    rows = [col << B.n for col in bit_columns(reach, B.n)] + reach
    parts = (B.mask(2), ((1 << d) - 1) << B.n)
    return BipartiteGraph._from_parts(rows, parts)


def _weakseq_stages(B0: BipartiteGraph, r: int, t: int, rng: RngStream,
                    retry_cap: int, stats: dict) -> Union[WeakSequence, Failure]:
    """Filter/partition/incidence stages on a bipartite graph.

    Every stage keeps B0's vertex ids, so the returned sequence is expressed
    in them: the host graph's ids when B0 is induced from the host.
    """
    p = B0.density()
    if p == 0:
        return Failure("degree_filter", "empty bipartite graph", dict(stats))
    stats["stage_density"] = p

    kept = degree_filter(B0, "sparse", p)
    stats["filter1_size"] = len(kept)
    stats["filter1_floor"] = p * B0.n2 / 2

    d = B0.n1 // r
    if d == 0:
        return Failure("cover_partition", "V1 smaller than r", dict(stats))
    B1 = BipartiteGraph.induced(B0, mask_of(B0.v1[:d * r]), mask_of(kept))
    cp1 = cover_partition(B1, r, rng, retry_cap)
    stats["fraction1"] = cp1.fraction
    stats["threshold1"] = cp1.threshold
    stats["partition1_tries"] = cp1.tries
    if not cp1.met:
        return Failure("cover_partition", "uncovered fraction above threshold",
                       dict(stats))

    # incidence graph X1: filtered vertices vs first-partition blocks
    X1 = _incidence_graph(B1, cp1.blocks)

    if p <= Fraction(3, r):
        stats["case"], mode, value = 1, "sparse", p * r / 4
        floor = value * X1.n2 / 2
    else:
        q = Fraction(math.exp(-float(p) * r / 2)).limit_denominator(10 ** 12)
        stats["case"], mode, value = 2, "dense", q or Fraction(1, 10 ** 12)
        floor = Fraction(X1.n2, 2)
    try:
        s_ids = degree_filter(X1, mode, value)
    except GuardError as err:
        stats["filter2_value"] = value
        return Failure("degree_filter", str(err), dict(stats))
    stats["filter2_floor"] = floor
    stats["s_size"] = len(s_ids)

    h = X1.n1 // r
    if h == 0:
        return Failure("cover_partition", "filtered side smaller than r",
                       dict(stats))
    X2 = BipartiteGraph.induced(X1, mask_of(X1.v1[:h * r]), mask_of(s_ids))
    cp2 = cover_partition(X2, r, rng, retry_cap)
    stats["fraction2"] = cp2.fraction
    stats["threshold2"] = cp2.threshold
    stats["partition2_tries"] = cp2.tries
    if not cp2.met:
        return Failure("cover_partition", "uncovered fraction above threshold",
                       dict(stats))

    # final incidence graph T: S-blocks vs second-partition blocks
    T = _incidence_graph(X2, cp2.blocks)
    delta = 1 - T.density()
    stats["t_parts"] = (T.n1, T.n2)
    stats["t_delta"] = delta

    wit = find_ktt(T, t)
    if isinstance(wit, Failure):
        return Failure(wit.stage, wit.reason, {**stats, **wit.stats})
    if wit is None:
        return Failure("find_ktt", "no K_{t,t} witness", dict(stats))
    left, right = wit
    s_sets = tuple(frozenset(cp1.blocks[u - B1.n]) for u in left)
    t_sets = tuple(frozenset(cp2.blocks[j - X2.n]) for j in right)
    return WeakSequence("bicomplete", r, t, s_sets, t_sets, dict(stats))


def weak_sequence_pipeline_guard(r: int, t: int, n: int) -> None:
    """GuardError unless r >= 1, t passes ``find_ktt_guard`` and 2rt <= n,
    the host's vertex count."""
    if r < 1:
        raise GuardError(f"parameter 'r' must be >= 1, got {r}")
    find_ktt_guard(t)
    if 2 * r * t > n:
        raise GuardError(f"2rt exceeds the vertex count {n} for r={r}, t={t}")


def weak_sequence_pipeline(G: Graph, r: int, t: int, rng: RngStream,
                           retry_cap: int = 200) -> Union[WeakSequence, Failure]:
    """Find a verified weakly bi-complete r-sequence of order t in G."""
    weak_sequence_pipeline_guard(r, t, G.n)
    if G.m == 0:
        raise GuardError("G has no edges")
    params = seq_params(G.n, G.density(), r, t)
    if params.regime == 0:
        warnings.warn("parameters outside the theorem regimes; proceeding",
                      RuntimeWarning, stacklevel=2)
    stats = {"n": G.n, "p": G.density(), "r": r, "t": t,
             "regime": params.regime, "delta_target": params.delta_target}
    eq = random_equitable_bipartition(G, rng, retry_cap)
    if isinstance(eq, Failure):
        return Failure("bipartition", "no dense equitable split", eq.stats)
    stats["cross_density"] = eq.cross_density
    stats["bipartition_tries"] = eq.tries
    result = _weakseq_stages(eq.bipartite, r, t, rng, retry_cap, stats)
    if isinstance(result, Failure):
        return result
    return verified(verify_sequence, G, result)


# ---------------------------------------------------------------------------
# Paths by dependent random choice


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _pick_two(a_cands: int, b_cands: int):
    """Distinct bits a from a_cands and b from b_cands, if any pair exists."""
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


def _first_short_pair(adj, X: list, middles: list, budget: int):
    """First pair of X, in ``itertools.combinations`` order, with fewer than
    ``budget`` greedy paths, as (pair, count); None when every pair reaches it.

    A pair (x, y) walks the middles m in order and takes the path x-a-m-b-y
    that ``_pick_two``, inlined here, picks from the unused common
    neighbours of (x, m) and of (y, m).  For each x, the greedy runs for
    every later y at once: the ys that share one state (``used``,
    ``count``) form a group, held as a vertex mask.  At a middle, a is the
    same for the whole group, and the group splits by b: walking the
    candidates b upward, ``rest & col[b]`` takes the ys whose lowest
    candidate is b, where ``col`` holds the columns of X's rows; the ys
    whose only candidate is a itself take b = a and the next a.  Every
    path is re-checked once per group as it is taken, from ``adj`` rather
    than ``col``: four edges (the b-y edge of every y in the group),
    internals outside X and outside ``used``, the group's earlier paths.
    The groups left below the budget when the middles run out hold the
    short ys of x.
    """
    xmask = mask_of(X)
    col = bit_columns([adj[v] if xmask >> v & 1 else 0
                       for v in range(len(adj))], len(adj))
    later = xmask
    for i, x in enumerate(X):
        later ^= 1 << x
        ax = adj[x]
        groups = [(later, 0, 0)] if later else []
        for m in middles:
            if not groups:
                break
            am, bm = adj[m], 1 << m
            split = []
            for group in groups:
                ys, used, count = group
                ca = ax & am & ~used
                if used & bm or not ca:
                    split.append(group)
                    continue
                a = ca & -ca
                cands = am & ~used & ~a
                rest = ys
                picks = []
                while cands and rest:
                    b = cands & -cands
                    cands ^= b
                    hit = rest & col[b.bit_length() - 1]
                    if hit:
                        rest ^= hit
                        picks.append((hit, a, b))
                hit = rest & col[a.bit_length() - 1]
                a2 = ca & ~a
                if hit and a2:  # cb is {a}: a moves to its next candidate
                    rest ^= hit
                    picks.append((hit, a2 & -a2, a))
                if rest:
                    split.append((rest, used, count))
                for hit, a, b in picks:
                    if not (ax & a and adj[a.bit_length() - 1] & bm
                            and am & b and not hit & ~adj[b.bit_length() - 1]):
                        raise AssertionError("extracted path misses an edge")
                    inner = a | b | bm
                    if inner & used or inner & xmask:
                        raise AssertionError("path internals collide")
                    if count + 1 < budget:
                        split.append((hit, used | inner, count + 1))
            groups = split
        if groups:  # the ys still short: return the first in X's order
            for y in X[i + 1:]:
                for ys, _, count in groups:
                    if ys >> y & 1:
                        return (x, y), count
    return None


def paths_drc(H: BipartiteGraph, rng: RngStream,
              constants: Optional[PathsParams] = None,
              retry_cap: int = 50) -> Union[PathsResult, Failure]:
    """Subset X of V1 whose pairs all carry a certified disjoint-path budget.

    X is the truncated common-neighborhood draw of one random V2 vertex.  For
    every pair of X, 4-edge paths with unused internal vertices outside X are
    extracted greedily up to the budget and re-verified; any shortfall
    triggers a redraw.
    """
    c = constants or PathsParams()
    if H.n1 != H.n2:
        raise GuardError("parts must have equal size")
    n = H.n1 + H.n2
    p = H.density()
    if p == 0:
        raise GuardError("H has no edges")
    if p * p * n < c.min_p2n:
        raise GuardError(f"p^2 n = {float(p * p * n):.1f} below {c.min_p2n}")
    target = _ceil_frac(p * n / c.x_frac_div)
    budget = max(1, _ceil_frac(Fraction(c.budget_coeff) * p ** 5 * n))
    v2 = list(H.v2)
    mask1 = H.mask(1)
    best = None
    for tries in range(1, max(retry_cap, 1) + 1):
        v = rng.choice(v2)
        nbhd = H.adj[v] & mask1
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
        short = _first_short_pair(H.adj, X, bits(mask1 & ~mask_of(X)),
                                  budget)
        if short is None:
            return PathsResult(tuple(X), budget, tries)
        shortfall = {"pair": short[0], "count": short[1], "budget": budget,
                     "x_size": len(X)}
        if best is None or shortfall["count"] > best.get("count", -1):
            best = shortfall
    reason = ("pair below path budget" if best and "count" in best
              else "common neighborhood below target")
    return Failure("paths_drc", reason, best or {})


# ---------------------------------------------------------------------------
# Minor pipeline


def _cleanup(G: Graph, threshold: Fraction) -> list:
    """Repeatedly drop the lowest-index vertex of induced degree < threshold."""
    # an integer degree is below threshold exactly when it is below its ceiling
    threshold = math.ceil(threshold)
    alive = (1 << G.n) - 1
    changed = True
    while changed and alive:
        changed = False
        for v in iter_bits(alive):
            if (G.adj[v] & alive).bit_count() < threshold:
                alive &= ~(1 << v)
                changed = True
                break
    return bits(alive)


def _balanced_split(G: Graph, alive: list, threshold: Fraction,
                    edge_floor: Fraction, rng: RngStream, retry_cap: int):
    """Random half split pruned to cross-degree >= threshold, sides equal."""
    threshold = math.ceil(threshold)  # as in ``_cleanup``
    order = list(alive)
    for _ in range(max(retry_cap, 1)):
        rng.shuffle(order)
        half = len(order) // 2
        u_side = set(order[:half])
        v_side = set(order[half:2 * half])
        while True:
            mu, mv = mask_of(u_side), mask_of(v_side)
            cut = next(((side, v) for side, other in ((u_side, mv), (v_side, mu))
                        for v in sorted(side)
                        if (G.adj[v] & other).bit_count() < threshold), None)
            if cut is not None:
                cut[0].discard(cut[1])
                continue
            if len(u_side) != len(v_side):
                big, other_mask = (u_side, mv) if len(u_side) > len(v_side) \
                    else (v_side, mu)
                drop = min(big, key=lambda v: ((G.adj[v] & other_mask).bit_count(), v))
                big.discard(drop)
                continue
            break
        if not u_side:
            continue
        cross = sum((G.adj[v] & mv).bit_count() for v in u_side)
        if cross >= edge_floor:
            return sorted(u_side), sorted(v_side)
    return None


def _top_by_degree(vertices, count: int, target_mask: int, adj) -> list:
    """count vertices with the most neighbors in target_mask; ties by index."""
    ranked = sorted(vertices,
                    key=lambda v: (-(adj[v] & target_mask).bit_count(), v))
    return sorted(ranked[:count])


def _connect_into(G: Graph, members: Sequence[int], anchor: int,
                  used: int):
    """Fresh lex-first 4-edge paths from every member to the anchor.

    Returns (internal vertices, new used mask) or None when some member has
    no available path.
    """
    internals = []
    for u in members:
        if u == anchor:
            continue
        found = None
        for m in iter_bits(~used & ((1 << G.n) - 1)):
            pick = _pick_two(G.adj[u] & G.adj[m] & ~used,
                             G.adj[anchor] & G.adj[m] & ~used)
            if pick is not None:
                found = (pick[0], m, pick[1])
                break
        if found is None:
            return None
        internals.extend(found)
        for w in found:
            used |= 1 << w
    return internals, used


def minor_pipeline_guard(r: int, t: int, n: int) -> None:
    """GuardError unless r >= 1, t >= 2 and 2rt <= n, the host's vertex
    count: the final bicomplete sequence holds 2t disjoint r-sets."""
    if r < 1 or t < 2:
        raise GuardError(f"need r >= 1 and t >= 2, got r={r}, t={t}")
    if 2 * r * t > n:
        raise GuardError(f"2rt exceeds the vertex count {n} for r={r}, t={t}")


def minor_pipeline(G: Graph, r: int, t: int, rng: RngStream,
                   constants: Optional[MinorConstants] = None,
                   diameter_aware: bool = True,
                   retry_cap: int = 50) -> Union[MinorModel, Failure]:
    """Find a verified K_t-minor with branch sets of size at most 8r.

    Stages: degree cleanup, balanced dense split, two rounds of path
    extraction, intermediate degree selections, a bicomplete r-sequence on
    the surviving pair, and branch-set assembly through fresh 4-edge paths.
    Each stage checks its measured clause and fails with its stage name.
    """
    minor_pipeline_guard(r, t, G.n)
    c = constants or MinorConstants()
    if G.m == 0:
        raise GuardError("G has no edges")
    n = G.n
    p = G.density()
    pf, ln = float(p), math.log(n) if n > 1 else 0.0
    in_regime = (p ** 8 * n >= 1 and p * r * r >= 576
                 and 4 * pf * r * r <= ln
                 and t <= math.exp(pf * r * r / 256) * ln / 32)
    if not in_regime:
        warnings.warn("parameters outside the guaranteed regime; proceeding",
                      RuntimeWarning, stacklevel=2)
    stats = {"n": n, "p": p, "r": r, "t": t, "in_regime": in_regime}

    alive = _cleanup(G, p * n / CLEANUP_DIV)
    stats["cleanup_size"] = len(alive)
    if len(alive) < 4:
        return Failure("cleanup", "graph vanished under degree cleanup",
                       dict(stats))

    split = _balanced_split(G, alive, p * n / SPLIT_MINDEG_DIV,
                            p * n * n / SPLIT_EDGE_DIV, rng, retry_cap)
    if split is None:
        return Failure("split", "no dense balanced split", dict(stats))
    u_side, v_side = split
    H = BipartiteGraph.induced(G, mask_of(u_side), mask_of(v_side))
    stats["split_sizes"] = (len(u_side), len(v_side))
    stats["split_density"] = H.density()

    try:
        res1 = paths_drc(H, rng, c.paths, retry_cap)
    except GuardError as err:
        return Failure("paths_drc[1]", str(err), dict(stats))
    if isinstance(res1, Failure):
        return Failure(res1.stage + "[1]", res1.reason, res1.stats)
    stats["x_size"] = len(res1.X)
    stats["path_budget1"] = res1.budget

    xp = _ceil_frac(p * n / Fraction(c.xprime_div))
    if xp > len(res1.X):
        return Failure("xprime", "X smaller than the required subset",
                       {"x_size": len(res1.X), "need": xp, **stats})
    xprime = list(res1.X[:xp])
    xp_mask = mask_of(xprime)

    v_count = len(alive)
    # an integer degree reaches z_cut exactly when it reaches its ceiling
    z_cut = math.ceil(p * n / (SPLIT_MINDEG_DIV * v_count) * xp)
    z = [w for w in H.v2 if (H.adj[w] & xp_mask).bit_count() >= z_cut]
    stats["z_size"] = len(z)
    if len(z) < xp:
        return Failure("z_select", "Z smaller than X'",
                       {"z_size": len(z), "need": xp, **stats})
    zprime = _top_by_degree(z, xp, xp_mask, H.adj)
    zp_mask = mask_of(zprime)
    e_xz = sum((H.adj[u] & zp_mask).bit_count() for u in xprime)
    stats["zprime_density"] = Fraction(e_xz, xp * xp)
    if Fraction(e_xz, xp * xp) < p / Z_DENSITY_DIV:
        return Failure("zprime", "X'-Z' density below clause", dict(stats))

    # second path extraction on (Z', X')
    h1 = BipartiteGraph.induced(G, zp_mask, xp_mask)
    try:
        res2 = paths_drc(h1, rng, c.paths, retry_cap)
    except GuardError as err:
        return Failure("paths_drc[2]", str(err), dict(stats))
    if isinstance(res2, Failure):
        return Failure(res2.stage + "[2]", res2.reason, res2.stats)
    y = res2.X
    stats["y_size"] = len(y)
    stats["path_budget2"] = res2.budget

    y_mask = mask_of(y)
    if len(y) > len(xprime):
        return Failure("w_select", "Y larger than X'", dict(stats))
    w = _top_by_degree(xprime, len(y), y_mask, G.adj)
    e_wy = sum((G.adj[u] & y_mask).bit_count() for u in w)
    stats["w_density"] = Fraction(e_wy, len(w) * len(y))
    if stats["w_density"] < p / W_DENSITY_DIV:
        return Failure("w_select", "W-Y density below clause", dict(stats))

    b_wy = BipartiteGraph.induced(G, mask_of(w), y_mask)
    seq = _weakseq_stages(b_wy, r, t, rng, max(retry_cap, 100), dict(stats))
    if isinstance(seq, Failure):
        return seq
    verified(verify_sequence, G, seq)
    stats = dict(seq.stats)

    # assembly: connect each S_i and T_i through a crossing edge
    used = mask_of(v for s in seq.s_sets + seq.t_sets for v in s)
    branch_sets = []
    for i in range(t):
        a_set = sorted(seq.s_sets[i])
        b_set = sorted(seq.t_sets[i])
        # verify_sequence's pair check gives S_i an edge to T_i
        edge = next((a, b) for a in a_set for b in b_set if G.has_edge(a, b))
        anchors = edge if diameter_aware else (a_set[0], b_set[0])
        branch = set(a_set) | set(b_set)
        for members, anchor in zip((a_set, b_set), anchors):
            got = _connect_into(G, members, anchor, used)
            if got is None:
                return Failure("assembly", "no unused connecting path",
                               {"branch": i, **stats})
            internals, used = got
            branch.update(internals)
        branch_sets.append(frozenset(branch))

    return verified(verify_minor, G, MinorModel(
        tuple(branch_sets), 8 * r, 9 if diameter_aware else None, dict(stats)))


def _induced_distances(g: Graph, members: frozenset) -> dict:
    """BFS distances within the induced subgraph, from every member."""
    mask = mask_of(members)
    out = {}
    for s in members:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in bits(g.adj[u] & mask):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        out[s] = dist
    return out


def verify_minor(g: Graph, model: MinorModel):
    """Check disjointness, connectivity, pairwise edges, and both caps."""
    sets = [frozenset(b) for b in model.branch_sets]
    for i, b in enumerate(sets):
        if not b:
            return False, ("empty", i)
        if any(not 0 <= v < g.n for v in b):
            raise ValueError(f"branch set {i} has out-of-range vertices")
        if len(b) > model.size_cap:
            return False, ("size", i)
    for i, j in itertools.combinations(range(len(sets)), 2):
        if sets[i] & sets[j]:
            return False, ("overlap", i, j)
        if not _sets_joined(g, sets[i], sets[j]):
            return False, ("pair", i, j)
    for i, b in enumerate(sets):
        dists = _induced_distances(g, b)
        root = min(b)
        if len(dists[root]) != len(b):
            return False, ("disconnected", i)
        if model.diameter_cap is not None:
            if any(max(d.values()) > model.diameter_cap for d in dists.values()):
                return False, ("diameter", i)
    return True, None


# ---------------------------------------------------------------------------
# Brute-force oracle


def max_weak_sequence_order_guard(r: int, n: int) -> None:
    """GuardError unless r >= 1 and the host's vertex count n is at most
    ORACLE_MAX_N."""
    if n > ORACLE_MAX_N:
        raise GuardError(f"oracle limited to n <= {ORACLE_MAX_N}")
    if r < 1:
        raise GuardError("need r >= 1")


def max_weak_sequence_order(g: Graph, r: int) -> int:
    """Largest order of a weakly complete r-sequence, by exhaustive search."""
    max_weak_sequence_order_guard(r, g.n)
    if r > g.n:
        return 0
    subsets = [(s, mask_of(s)) for s in
               itertools.combinations(range(g.n), r)]
    joined = [[bool(any(g.adj[u] & sm2 for u in s1))
               for (_, sm2) in subsets] for (s1, _) in subsets]
    best = 0

    def extend(start: int, chosen: list, used: int):
        nonlocal best
        best = max(best, len(chosen))
        for idx in range(start, len(subsets)):
            if len(chosen) + (g.n - used.bit_count()) // r <= best:
                return
            s, sm = subsets[idx]
            if sm & used:
                continue
            if all(joined[j][idx] or joined[idx][j] for j in chosen):
                chosen.append(idx)
                extend(idx + 1, chosen, used | sm)
                chosen.pop()

    extend(0, [], 0)
    return best
