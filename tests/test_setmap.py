"""Tests for grid set mappings, violator searches, and the free-set oracle."""

import dataclasses
import itertools
import sys
from collections import Counter

import pytest

from exlab.core import GuardError, RngStream
from exlab.setmap import (FreeSetResult, caro_map, caro_violator, eh_map,
                          eh_violator, free_set_oracle, verify_violation)


def enum_free_max(f, mode):
    """Independent exhaustive maximum free-set size (top-down enumeration)."""
    pts = f.points
    for r in range(len(pts), -1, -1):
        for sub in itertools.combinations(pts, r):
            S = frozenset(sub)
            ok = True
            for X in itertools.combinations(sub, f.k):
                img = f.rule(X)
                if mode == "disjoint" and img & S:
                    ok = False
                    break
                if mode == "not_subset" and img <= S:
                    ok = False
                    break
            if ok:
                return r
    return 0


def is_free(f, S, mode):
    S = frozenset(S)
    for X in itertools.combinations(sorted(S), f.k):
        img = f.rule(X)
        if mode == "disjoint" and img & S:
            return False
        if mode == "not_subset" and img <= S:
            return False
    return True


def test_eh_rule_examples():
    f = eh_map(2, 2)
    # permutation tuples (1,2) and (2,1), no collision
    assert f.rule({(1, 1), (2, 2)}) == frozenset({(1, 2), (2, 1)})
    # both permutation tuples collide with X; fresh points fill the image
    assert f.rule({(1, 1), (1, 2)}) == frozenset({(2, 1), (2, 2)})
    assert f.l == 2 and f.overlap == 0 and f.m == 4


def test_eh_lexicographic_images_are_singletons():
    f = eh_map(2, 2, "lexicographic")
    assert f.l == 1
    for X in itertools.combinations(f.points, 2):
        img = f.rule(X)
        assert len(img) == 1
        assert not img & set(X)
        # the permutation tuple pins the first coordinate to the minimum
        # over X; only a collision diverts to a fallback point
        xs = sorted(X)
        t = (xs[0][0], xs[1][1])
        if t not in X:
            assert img == frozenset({t})
            assert t[0] == min(x[0] for x in X)


def test_eh_image_invariants_exhaustive():
    for n, k, variant in [(3, 2, "full_factorial"), (4, 2, "full_factorial"),
                          (3, 3, "full_factorial"), (3, 2, "lexicographic"),
                          (3, 3, "lexicographic")]:
        f = eh_map(n, k, variant)
        want = f.l
        for X in itertools.combinations(f.points, k):
            img = f.rule(X)
            assert len(img) == want
            assert not img & set(X)
            assert img <= set(f.points)


def test_eh_image_invariants_sampled():
    rng = RngStream(2024)
    for n, k in [(10, 2), (100, 2), (10, 3)]:
        f = eh_map(n, k)
        for _ in range(300):
            X = rng.sample(f.points, k)
            img = f.rule(X)
            assert len(img) == f.l
            assert not img & set(X)


def test_caro_rule_examples():
    c2 = caro_map(3, 2)
    assert c2.rule({(1, 1), (2, 2)}) == frozenset({(1, 1), (1, 2)})
    # unordered input is canonicalized before the rule fires
    assert c2.rule({(2, 1), (1, 2)}) == frozenset({(1, 2), (1, 1)})
    c3 = caro_map(3, 3)
    assert c3.rule({(1, 1, 1), (2, 2, 2)}) == frozenset({(2, 1, 1), (2, 1, 2)})


def test_caro_fallback_is_lexicographic_smallest_valid_pair():
    c2 = caro_map(3, 2)
    # same column: rule pattern does not fire, overlap bound 1 allows (1,1)
    assert c2.rule({(1, 1), (1, 3)}) == frozenset({(1, 1), (1, 2)})
    # same row
    assert c2.rule({(1, 2), (3, 2)}) == frozenset({(1, 1), (1, 2)})
    c3 = caro_map(3, 3)
    # same y coordinate: fallback must avoid X entirely (overlap bound 0)
    assert c3.rule({(1, 1, 1), (2, 1, 2)}) == frozenset({(1, 1, 2), (1, 1, 3)})


def test_caro_overlap_invariants_exhaustive():
    for m, dim in [(3, 2), (4, 2), (2, 3), (3, 3)]:
        c = caro_map(m, dim)
        bound = 1 if dim == 2 else 0
        for X in itertools.combinations(c.points, 2):
            img = c.rule(X)
            assert len(img) == 2
            assert len(img & set(X)) <= bound


def test_caro_overlap_invariants_sampled():
    rng = RngStream(7)
    for m, dim in [(30, 2), (8, 3)]:
        c = caro_map(m, dim)
        bound = 1 if dim == 2 else 0
        for _ in range(300):
            X = rng.sample(c.points, 2)
            img = c.rule(X)
            assert len(img) == 2
            assert len(img & set(X)) <= bound


def test_eh_violator_above_threshold_always_finds():
    # ground 5x5, threshold k^2*n = 20: every 21-point region violates
    f = eh_map(5, 2)
    for P in itertools.combinations(f.points, 21):
        vio = eh_violator(f, P)
        assert vio is not None
        assert verify_violation(f, frozenset(P), vio) == (True, None)


def test_eh_violator_sampled_above_threshold():
    f = eh_map(6, 2)
    rng = RngStream(31)
    for _ in range(300):
        P = rng.sample(f.points, 25)
        vio = eh_violator(f, P)
        assert vio is not None
        assert verify_violation(f, frozenset(P), vio) == (True, None)
        assert len(vio.X) == 2 and vio.witness not in vio.X


def test_eh_violator_lexicographic_variant():
    f = eh_map(5, 2, "lexicographic")
    rng = RngStream(32)
    for _ in range(300):
        P = rng.sample(f.points, 21)
        vio = eh_violator(f, P)
        assert vio is not None
        assert verify_violation(f, frozenset(P), vio) == (True, None)


def test_eh_violator_trivial_and_deterministic():
    f = eh_map(6, 2)
    assert eh_violator(f, []) is None
    P = [(x, y) for x in range(1, 6) for y in range(1, 6)]
    assert eh_violator(f, P) == eh_violator(f, P)


def test_caro_violator_dim2_exhaustive_at_threshold():
    # 2m = 6: every 7-point region of the 3x3 grid violates
    c = caro_map(3, 2)
    seen = 0
    for Q in itertools.combinations(c.points, 7):
        vio = caro_violator(c, Q)
        assert vio is not None
        assert verify_violation(c, frozenset(Q), vio) == (True, None)
        seen += 1
    assert seen == 36


def test_caro_violator_dim3_sampled_above_threshold():
    # 3m^2 = 48: every 49-point region of the 4x4x4 grid violates
    c = caro_map(4, 3)
    rng = RngStream(55)
    for _ in range(1000):
        Q = rng.sample(c.points, 49)
        vio = caro_violator(c, Q)
        assert vio is not None
        assert verify_violation(c, frozenset(Q), vio) == (True, None)


def test_caro_violator_trivial():
    c = caro_map(3, 2)
    assert caro_violator(c, [(2, 2)]) is None
    assert caro_violator(c, []) is None


def test_free_set_oracle_eh22():
    f = eh_map(2, 2)
    res = free_set_oracle(f, "disjoint")
    assert res.exact
    # exhaustive enumeration over all 2^4 subsets gives 2
    assert res.size == enum_free_max(f, "disjoint") == 2
    assert is_free(f, res.witness, "disjoint")


def test_free_set_oracle_caro32():
    c = caro_map(3, 2)
    res = free_set_oracle(c, "not_subset")
    assert res.exact
    assert res.size == enum_free_max(c, "not_subset") == 5
    # the marking bound caps free sets at 2m = 6
    assert res.size <= 6
    assert is_free(c, res.witness, "not_subset")


def test_free_set_oracle_caro23():
    c = caro_map(2, 3)
    res = free_set_oracle(c, "not_subset")
    assert res.exact
    assert res.size == enum_free_max(c, "not_subset") == 6
    assert is_free(c, res.witness, "not_subset")


def test_free_set_oracle_trivial_lower_bound():
    for f, mode in [(eh_map(2, 2), "disjoint"), (caro_map(2, 2), "not_subset")]:
        res = free_set_oracle(f, mode)
        assert res.size >= min(f.k - 1, len(f.points))


def test_free_set_oracle_budget_bracket():
    c = caro_map(3, 2)
    res = free_set_oracle(c, "not_subset", budget=5)
    assert isinstance(res, FreeSetResult)
    assert not res.exact
    assert res.size <= res.upper == 9
    assert is_free(c, res.witness, "not_subset")
    assert res.nodes <= 6


def test_free_set_oracle_restores_the_recursion_limit():
    # 1600 points need a limit above the default for the depth-first search
    limit = sys.getrecursionlimit()
    res = free_set_oracle(eh_map(40, 2), budget=3000)
    assert sys.getrecursionlimit() == limit
    assert (res.size, res.nodes) == (40, 3001)


# (mapping, budget, mode) -> (size, upper, nodes, witness) before the oracle
# kept its images; eh_map(4, 2) in "disjoint" mode is perfbench cli-mix's
# oracle job
ORACLE_PINS = {
    ("eh", None, "disjoint"): (6, 6, 1741, [(1, 3), (2, 1), (2, 2), (2, 4),
                                            (3, 3), (4, 3)]),
    ("eh", None, "not_subset"): (9, 9, 4685, [
        (1, 1), (1, 3), (1, 4), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2),
        (4, 4)]),
    ("caro3", 2000, "disjoint"): (4, 27, 2001, [(1, 1, 1), (1, 2, 1),
                                                (2, 1, 2), (3, 3, 3)]),
    ("caro3", 2000, "not_subset"): (16, 27, 2001, [
        (1, 1, 1), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 1),
        (1, 3, 2), (1, 3, 3), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1),
        (3, 1, 1), (3, 1, 2), (3, 2, 3), (3, 3, 3)]),
}


@pytest.mark.parametrize("name, budget, mode", list(ORACLE_PINS))
def test_free_set_oracle_evaluates_each_k_set_once(name, budget, mode):
    f = eh_map(4, 2) if name == "eh" else caro_map(3, 3)
    calls = Counter()

    def counted(X):
        calls[frozenset(X)] += 1
        return f.rule(X)

    res = free_set_oracle(dataclasses.replace(f, rule=counted), mode, budget)
    # the search evaluates each k-set once, and verify_free_set each k-subset
    # of the witness once more
    assert calls and all(n == 1 + (X <= res.witness) for X, n in calls.items())
    assert all(len(X) == f.k for X in calls)
    size, upper, nodes, witness = ORACLE_PINS[name, budget, mode]
    assert (res.size, res.upper, res.nodes) == (size, upper, nodes)
    assert res.witness == frozenset(witness)
    assert res.exact == (budget is None)
    assert is_free(f, res.witness, mode)


def test_violators_never_fire_inside_certified_free_sets():
    f = eh_map(2, 2)
    for r in range(5):
        for sub in itertools.combinations(f.points, r):
            if is_free(f, sub, "disjoint"):
                assert eh_violator(f, sub) is None
    c = caro_map(3, 2)
    for r in range(10):
        for sub in itertools.combinations(c.points, r):
            if is_free(c, sub, "not_subset"):
                assert caro_violator(c, sub) is None


def test_guards():
    with pytest.raises(GuardError):
        eh_map(1, 2)
    with pytest.raises(GuardError):
        eh_map(2, 2, "bogus")
    with pytest.raises(GuardError):
        eh_map(101, 3)  # 101^3 points is past the resource guard
    with pytest.raises(GuardError):
        eh_map(2, 100000)  # 2^100000 is rejected without being formatted
    with pytest.raises(GuardError):
        eh_map(2, 3)  # k! + k = 9 points cannot fit in a 2^3 ground set
    with pytest.raises(GuardError):
        caro_map(1, 2)
    with pytest.raises(GuardError):
        caro_map(3, 4)
    with pytest.raises(GuardError):
        caro_map(1001, 2)
    f = eh_map(3, 2)
    with pytest.raises(GuardError):
        eh_violator(f, [(9, 9)])
    with pytest.raises(GuardError):
        caro_violator(f, [(1, 1)])
    with pytest.raises(GuardError):
        eh_violator(caro_map(3, 2), [(1, 1)])
    with pytest.raises(GuardError):
        free_set_oracle(f, "bogus")
    with pytest.raises(GuardError):
        free_set_oracle(caro_map(6, 2), "not_subset")  # 36 points, no budget
    with pytest.raises(ValueError):
        f.rule({(1, 1)})
    with pytest.raises(ValueError):
        f.rule({(1, 1), (9, 9)})
