"""Set mappings on coordinate grids with forbidden local patterns.

Builds total rules from k-subsets of a grid to small image sets, searches
candidate regions for rule violations, and brackets maximum free-set sizes
with an exact branch-and-bound oracle at desk scale.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .core import GuardError, verified

Point = tuple

MAX_GROUND = 10 ** 6
ORACLE_EXHAUSTIVE_LIMIT = 25


@dataclass(frozen=True)
class SetMapping:
    """Total rule from k-subsets of a coordinate grid to l-subsets.

    kind "eh" rules have images disjoint from their argument; kind "caro"
    rules allow an overlap of at most ``overlap`` points.
    """

    kind: str
    m: int
    k: int
    l: int
    overlap: int
    side: int
    variant: Optional[str]
    dim: Optional[int]
    points: tuple
    rule: Callable[[Iterable[Point]], frozenset] = field(compare=False)

    def ground(self) -> frozenset:
        return frozenset(self.points)


@dataclass(frozen=True)
class Violation:
    """Certificate that a candidate free set admits a mapped k-subset.

    For "eh" mappings the witness is the single image point found inside the
    region; for "caro" mappings it is the full image, contained in the region.
    """

    X: frozenset
    witness: object


def verify_violation(f: SetMapping, region: frozenset, vio: Violation):
    """(ok, reason) from the rule re-evaluated: reason is ("argument", p) for
    the least point p of X off the region, ("image",) when the witness is
    not in (eh) or not (caro) the image of X, or ("outside", p) for the
    least witness point p off the region."""
    if not vio.X <= region:
        return False, ("argument", min(vio.X - region))
    image = f.rule(vio.X)
    if f.kind == "eh":
        ok, shown = vio.witness in image, {vio.witness}
    else:
        ok, shown = vio.witness == image, image
    if not ok:
        return False, ("image",)
    if not shown <= region:
        return False, ("outside", min(shown - region))
    return True, None


def _ground_guard(side: int, dim: int) -> int:
    """side^dim, or GuardError when it exceeds MAX_GROUND (side >= 2).

    side^dim >= 2^dim, so a dim of MAX_GROUND's bit length or more is
    rejected before the power is taken.
    """
    if dim >= MAX_GROUND.bit_length() or side ** dim > MAX_GROUND:
        raise GuardError(f"ground set of {side}^{dim} points exceeds {MAX_GROUND}")
    return side ** dim


def eh_map_guard(n: int, k: int, variant: str) -> int:
    """The ground-set size n^k of ``eh_map(n, k, variant)``; GuardError
    unless the variant is known, n, k >= 2, n^k <= MAX_GROUND, and the
    image and its argument fit disjointly in the ground set."""
    if variant not in ("full_factorial", "lexicographic"):
        raise GuardError(f"unknown variant {variant!r}")
    if n < 2 or k < 2:
        raise GuardError("need n >= 2 and k >= 2")
    ground_size = _ground_guard(n, k)
    l = math.factorial(k) if variant == "full_factorial" else math.factorial(k - 1)
    if ground_size < l + k:
        # the image and X are disjoint, so both must fit inside the ground set
        raise GuardError(f"image size {l} plus k={k} cannot fit in {ground_size} points")
    return ground_size


def eh_map(n: int, k: int, variant: str = "full_factorial") -> SetMapping:
    """Disjoint-image mapping on the grid [n]^k built from permutation tuples.

    For sorted X = (x_1, ..., x_k) each permutation ``perm`` contributes the
    tuple whose j-th coordinate is x_{perm(j)}[j]; tuples colliding with X or
    with earlier picks are replaced by the first fresh ground point.  The
    lexicographic variant keeps only permutations fixing the first position,
    which pins the image's first coordinate to the minimum over X.
    """
    ground_size = eh_map_guard(n, k, variant)
    points = tuple(itertools.product(range(1, n + 1), repeat=k))
    point_set = frozenset(points)
    if variant == "full_factorial":
        perms = list(itertools.permutations(range(k)))
    else:
        perms = [p for p in itertools.permutations(range(k)) if p[0] == 0]

    def rule(X: Iterable[Point]) -> frozenset:
        xs = sorted(X)
        if len(xs) != k or len(set(xs)) != k or not point_set.issuperset(xs):
            raise ValueError(f"argument must be a {k}-subset of the ground set")
        x_set = set(xs)
        picked: list[Point] = []
        picked_set: set[Point] = set()
        for perm in perms:
            t = tuple(xs[perm[j]][j] for j in range(k))
            if t in x_set or t in picked_set:
                # collision: substitute the first unused fresh ground point
                t = next(p for p in points if p not in x_set and p not in picked_set)
            picked.append(t)
            picked_set.add(t)
        return frozenset(picked)

    return SetMapping(kind="eh", m=ground_size, k=k, l=len(perms), overlap=0,
                      side=n, variant=variant, dim=None, points=points,
                      rule=rule)


def caro_map_guard(m: int, dim: int) -> int:
    """The ground-set size m^dim of ``caro_map(m, dim)``; GuardError unless
    dim is 2 or 3, m >= 2 and m^dim <= MAX_GROUND."""
    if dim not in (2, 3):
        raise GuardError("dim must be 2 or 3")
    if m < 2:
        raise GuardError("need m >= 2")
    return _ground_guard(m, dim)


def caro_map(m: int, dim: int = 2) -> SetMapping:
    """Bounded-overlap pair mapping on the grid [m]^dim (dim 2 or 3).

    dim=2 maps {(x,y), (x',y')} with x < x' and y != y' to {(x,y), (x,y')},
    overlap bound 1.  dim=3 maps {(x,y,z), (x',y',z')} with x < x', y != y',
    z != z' to {(x',y,z), (x',y,z')}, overlap bound 0.  Pairs outside the rule
    pattern fall back to the lexicographically smallest valid image pair.
    """
    ground_size = caro_map_guard(m, dim)
    d = 1 if dim == 2 else 0
    points = tuple(itertools.product(range(1, m + 1), repeat=dim))
    point_set = frozenset(points)

    def check(X: Iterable[Point]) -> tuple:
        xs = sorted(X)
        if len(xs) != 2 or len(set(xs)) != 2 or not point_set.issuperset(xs):
            raise ValueError("argument must be a 2-subset of the ground set")
        return xs[0], xs[1]

    def fallback(x_set: set) -> frozenset:
        # lexicographically smallest pair within the overlap bound
        for u, v in itertools.combinations(points, 2):
            if len({u, v} & x_set) <= d:
                return frozenset({u, v})
        raise AssertionError("no valid image pair exists")

    if dim == 2:
        def rule(X: Iterable[Point]) -> frozenset:
            a, b = check(X)
            (x, y), (xp, yp) = a, b
            if x < xp and y != yp:
                return frozenset({(x, y), (x, yp)})
            return fallback({a, b})
    else:
        def rule(X: Iterable[Point]) -> frozenset:
            a, b = check(X)
            (x, y, z), (xp, yp, zp) = a, b
            if x < xp and y != yp and z != zp:
                return frozenset({(xp, y, z), (xp, y, zp)})
            return fallback({a, b})

    return SetMapping(kind="caro", m=ground_size, k=2, l=2, overlap=d, side=m,
                      variant=None, dim=dim, points=points, rule=rule)


def eh_violator(f: SetMapping, P: Iterable[Point]) -> Optional[Violation]:
    """Find X inside P whose image meets P, or None when P is too sparse.

    Repeatedly deletes axis planes holding at most k points of P, scanning
    planes by coordinate index then value so runs are reproducible.  At most
    k*n planes are ever deleted, each removing at most k points, so survivors
    exist whenever |P| > k^2 * n.  The violating X collects, per coordinate,
    the least surviving point sharing that coordinate with the least survivor.
    """
    if f.kind != "eh":
        raise GuardError("eh_violator requires a mapping built by eh_map")
    region = frozenset(P)
    if not region <= f.ground():
        raise GuardError("P must be a subset of the ground set")
    n, k = f.side, f.k
    survivors = set(region)
    planes: dict[tuple[int, int], set] = {}
    for p in survivors:
        for i in range(k):
            planes.setdefault((i, p[i]), set()).add(p)
    while True:
        deleted = False
        for i in range(k):
            for v in range(1, n + 1):
                plane = planes.get((i, v))
                if plane and len(plane) <= k:
                    for p in list(plane):
                        for j in range(k):
                            planes[(j, p[j])].discard(p)
                        survivors.discard(p)
                    deleted = True
        if not deleted:
            break
    if not survivors:
        if len(region) > k * k * n:
            raise AssertionError("plane deletion exhausted an oversized region")
        return None
    p = min(survivors)
    used = {p}
    picks: list[Point] = []
    for i in range(k):
        # the surviving plane through p holds more than k points, so after
        # excluding p and at most k-1 earlier picks a candidate remains
        q = min(s for s in planes[(i, p[i])] if s not in used)
        picks.append(q)
        used.add(q)
    return verified(verify_violation, f, region,
                    Violation(X=frozenset(picks), witness=p))


def caro_violator(f: SetMapping, Q: Iterable[Point]) -> Optional[Violation]:
    """Find X inside Q with its whole image inside Q, or None below threshold.

    dim=2 marks the highest point of every column and the rightmost point of
    every row (at most 2m marks); any survivor (x, y) yields the violating
    pair {(x, col_max), (row_max, y)}.  dim=3 marks the leftmost point of
    every x-line and the highest point of every y-line (at most 2m^2 marks);
    two survivors sharing (x, y) always exist once |Q| > 3m^2 and yield the
    violating pair directly.
    """
    if f.kind != "caro":
        raise GuardError("caro_violator requires a mapping built by caro_map")
    region = frozenset(Q)
    if not region <= f.ground():
        raise GuardError("Q must be a subset of the ground set")
    found = (_caro_pair_dim2 if f.dim == 2 else _caro_pair_dim3)(f, region)
    if found is None:
        return None
    X, image = found
    vio = Violation(X=X, witness=f.rule(X))
    if vio.witness != image:
        raise AssertionError("rule disagrees with the marking argument")
    return verified(verify_violation, f, region, vio)


def _caro_pair_dim2(f: SetMapping, region: frozenset) -> Optional[tuple]:
    """(X, the image the marking argument predicts for X), or None."""
    col_max: dict[int, int] = {}
    row_max: dict[int, int] = {}
    for x, y in region:
        col_max[x] = max(col_max.get(x, 0), y)
        row_max[y] = max(row_max.get(y, 0), x)
    marked = {(x, col_max[x]) for x in col_max}
    marked |= {(row_max[y], y) for y in row_max}
    survivors = region - marked
    if not survivors:
        if len(region) > 2 * f.side:
            raise AssertionError("marking exhausted an oversized region")
        return None
    x, y = min(survivors)
    yp = col_max[x]  # strictly above: (x, y) survived the column marking
    xp = row_max[y]  # strictly right: (x, y) survived the row marking
    return frozenset({(x, yp), (xp, y)}), frozenset({(x, y), (x, yp)})


def _caro_pair_dim3(f: SetMapping, region: frozenset) -> Optional[tuple]:
    m = f.side
    x_min: dict[tuple, int] = {}
    y_max: dict[tuple, int] = {}
    for x, y, z in region:
        if x < x_min.get((y, z), m + 1):
            x_min[(y, z)] = x
        if y > y_max.get((x, z), 0):
            y_max[(x, z)] = y
    marked = {(x_min[yz], yz[0], yz[1]) for yz in x_min}
    marked |= {(xz[0], y_max[xz], xz[1]) for xz in y_max}
    groups: dict[tuple, list[int]] = {}
    for x, y, z in region - marked:
        groups.setdefault((x, y), []).append(z)
    pair_key = None
    for key in sorted(groups):
        if len(groups[key]) >= 2:
            pair_key = key
            break
    if pair_key is None:
        # at most 2m^2 marks plus m^2 singleton groups cover the region
        if len(region) > 3 * m * m:
            raise AssertionError("marking exhausted an oversized region")
        return None
    xp, y = pair_key
    z1, z2 = sorted(groups[pair_key])[:2]
    x = x_min[(y, z1)]    # strictly left: (xp, y, z1) survived its x-line
    ypp = y_max[(xp, z2)]  # strictly above: (xp, y, z2) survived its y-line
    return (frozenset({(x, y, z1), (xp, ypp, z2)}),
            frozenset({(xp, y, z1), (xp, y, z2)}))


@dataclass(frozen=True)
class FreeSetResult:
    """Bracket on the maximum free-set size; size == upper when exact."""

    size: int
    upper: int
    witness: frozenset
    exact: bool
    nodes: int


def free_set_oracle_guard(mode: str, ground_size: int,
                          budget: Optional[int]) -> None:
    """GuardError unless the oracle mode is known and a ground set above
    ORACLE_EXHAUSTIVE_LIMIT points comes with a node budget."""
    if mode not in ("disjoint", "not_subset"):
        raise GuardError(f"unknown oracle mode {mode!r}")
    if budget is None and ground_size > ORACLE_EXHAUSTIVE_LIMIT:
        raise GuardError(f"ground set of {ground_size} points needs an "
                         "explicit budget")


def free_set_oracle(f: SetMapping, mode: str = "disjoint",
                    budget: Optional[int] = None) -> FreeSetResult:
    """Maximum size of a region free of rule violations, by branch and bound.

    mode "disjoint": no k-subset of the witness has an image meeting the
    witness.  mode "not_subset": no k-subset has its image contained in the
    witness.  Without a budget the ground set must stay at desk scale; with a
    node budget the result degrades to a (size, upper) bracket when the
    search is cut off.
    """
    free_set_oracle_guard(mode, len(f.points), budget)
    pts = list(f.points)
    g = len(pts)
    k = f.k
    # sets smaller than k are vacuously free
    best_size = min(k - 1, g)
    best_witness = tuple(pts[:best_size])
    nodes = 0
    aborted = False
    chosen: list[Point] = []
    chosen_set: set[Point] = set()
    forbidden: dict[Point, int] = {}
    missing: dict[frozenset, set] = {}
    awaiting: dict[Point, set] = {}
    # every rule is deterministic, so one search evaluates each k-set once
    images_of: dict[frozenset, frozenset] = {}

    def image(X: frozenset) -> frozenset:
        img = images_of.get(X)
        if img is None:
            img = images_of[X] = f.rule(X)
        return img

    def include(q: Point):
        """Tentatively add q; return an undo token, or None if freeness breaks."""
        if mode == "disjoint":
            if forbidden.get(q, 0):
                return None
            images = []
            for S in itertools.combinations(chosen, k - 1):
                img = image(frozenset(S) | {q})
                if q in img or not img.isdisjoint(chosen_set):
                    return None
                images.append(img)
            for img in images:
                for p in img:
                    forbidden[p] = forbidden.get(p, 0) + 1
            return ("disjoint", q, images)
        shrunk = []
        ok = True
        for X in awaiting.get(q, ()):
            ms = missing[X]
            ms.discard(q)  # q joins the region, so it no longer blocks X
            shrunk.append(X)
            if not ms:
                ok = False
                break
        entries = []
        if ok:
            for S in itertools.combinations(chosen, k - 1):
                X = frozenset(S) | {q}
                miss = set(image(X)) - chosen_set - {q}
                if not miss:
                    ok = False
                    break
                entries.append((X, miss))
        if not ok:
            for X in shrunk:
                missing[X].add(q)
            return None
        for X, miss in entries:
            missing[X] = miss
            for p in miss:
                awaiting.setdefault(p, set()).add(X)
        return ("not_subset", q, shrunk, entries)

    def undo(token) -> None:
        if token[0] == "disjoint":
            for img in token[2]:
                for p in img:
                    forbidden[p] -= 1
            return
        _, q, shrunk, entries = token
        for X, miss in entries:
            del missing[X]
            for p in miss:
                awaiting[p].discard(X)
        for X in shrunk:
            missing[X].add(q)

    def search(idx: int) -> None:
        nonlocal nodes, best_size, best_witness, aborted
        if aborted:
            return
        nodes += 1
        if budget is not None and nodes > budget:
            aborted = True
            return
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_witness = tuple(chosen)
        if idx == g or len(chosen) + (g - idx) <= best_size:
            return
        q = pts[idx]
        token = include(q)
        if token is not None:
            chosen.append(q)
            chosen_set.add(q)
            search(idx + 1)
            chosen.pop()
            chosen_set.discard(q)
            undo(token)
        search(idx + 1)

    limit = sys.getrecursionlimit()
    if g + 100 > limit:
        sys.setrecursionlimit(g + 200)
    try:
        search(0)
    finally:
        sys.setrecursionlimit(limit)
    exact = not aborted
    return verified(verify_free_set, f, mode, FreeSetResult(
        size=best_size, upper=best_size if exact else g,
        witness=frozenset(best_witness), exact=exact, nodes=nodes))


def verify_free_set(f: SetMapping, mode: str, res: FreeSetResult):
    """(ok, reason) for ``res = free_set_oracle(f, mode, ...)``, every image
    re-evaluated by ``f.rule``: reason is ("ground", p) for the least
    witness point p off the ground set, ("size", w) for a witness of
    w != res.size points, ("violation", X) for the first k-subset X of the
    sorted witness whose image meets it (mode "disjoint") or lies inside it
    (mode "not_subset"), ("bracket", res.upper) unless
    size <= upper <= |ground|, or ("exact", res.upper) for an exact result
    whose upper bound is not its size."""
    if mode not in ("disjoint", "not_subset"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    W = res.witness
    if not W <= f.ground():
        return False, ("ground", min(W - f.ground()))
    if len(W) != res.size:
        return False, ("size", len(W))
    for X in itertools.combinations(sorted(W), f.k):
        image = f.rule(X)
        if image <= W if mode == "not_subset" else not image.isdisjoint(W):
            return False, ("violation", X)
    if not res.size <= res.upper <= len(f.points):
        return False, ("bracket", res.upper)
    if res.exact and res.upper != res.size:
        return False, ("exact", res.upper)
    return True, None
