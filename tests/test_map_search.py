"""Brute-force oracle for `enumerate_functors` and `enumerate_homs`.

Both searches run on one shared index-map engine, so comparing them with
each other (acceptance criterion 4) cannot catch a fault in that engine.
Here every index map is tried and checked by the definitions, written out
independently: functors by the per-pair increasing condition, homs by
pulling back grid members and canonical points.  A work bound catches a
search that calls the order more than once per distinct source value and
target entry, and the same test pins the search's levels: non-empty, each
a run of maps that differ only in their last position.
"""

import random
from itertools import product
from math import isfinite

import pytest

from lcdual.lattices import get_lattice
from lcdual.categories import VFunctor, make_category, enumerate_functors, _index_maps
from lcdual.scalars import POS_INF, fin
from lcdual.lconvex import (
    closure, member, grid_members, canonical_points, make_lcs,
)
from lcdual.duality import enumerate_homs, cat_to_lcs

from conftest import INF, NINF, kcat
from test_lconvex import lcs, _grid_by_member


def oracle_functors(A, B):
    L = A.lattice
    found = []
    for choice in product(B.objects, repeat=len(A.objects)):
        f = dict(zip(A.objects, choice))
        if all(L.leq(A.hom_at(a, a2), B.hom_at(f[a], f[a2]))
               for a in A.objects for a2 in A.objects):
            found.append(choice)
    return found


def oracle_homs(D, E, bound):
    points = grid_members(D, bound) + canonical_points(D)
    found = []
    for choice in product(D.index, repeat=len(E.index)):
        f = [D.index.index(v) for v in choice]
        if all(member(E, tuple(p[j] for j in f)) for p in points):
            found.append(choice)
    return found


def functor_images(A, B):
    return [tuple(F(a) for a in A.objects) for F in enumerate_functors(A, B)]


def hom_images(D, E):
    return [tuple(phi(w) for w in E.index) for phi in enumerate_homs(D, E)]


def random_lcs(rng, n, labels):
    """A closed dbm from a hidden potential plus slack, some bounds open or tight."""
    pot = [rng.randint(-2, 2) for _ in range(n)]
    rows = [[fin(0) if i == j else rng.choice([POS_INF, fin(rng.randint(-2, 2)),
                                               fin(pot[j] - pot[i] + rng.randint(0, 2))])
             for j in range(n)] for i in range(n)]
    return closure(make_lcs(labels[:n], rows))


def random_category(rng, L, n, labels):
    grid = L.carrier_grid(1)
    return make_category(L, labels[:n], [[rng.choice(grid) for _ in range(n)]
                                         for _ in range(n)])


LATTICES = ["kbar", "two", "kbar_plus", "kbar_plus_cart"]


@pytest.mark.parametrize("lattice", LATTICES)
def test_functor_search_matches_oracle(lattice):
    L = get_lattice(lattice)
    rng = random.Random("functors/" + lattice)
    kept = rejected = 0
    for _ in range(60):
        A = random_category(rng, L, rng.randint(1, 3), ("a", "b", "c"))
        B = random_category(rng, L, rng.randint(1, 3), ("x", "y", "z"))
        want = oracle_functors(A, B)
        assert functor_images(A, B) == want
        kept += len(want)
        rejected += len(B.objects) ** len(A.objects) - len(want)
    assert kept and rejected


def test_hom_search_matches_oracle():
    rng = random.Random(1212)
    kept = rejected = 0
    for _ in range(80):
        D = random_lcs(rng, rng.randint(1, 3), ("v", "w", "x"))
        E = random_lcs(rng, rng.randint(1, 3), ("p", "q", "r"))
        bound = max([3] + [abs(int(x)) for row in D.dbm for x in row if isfinite(x)])
        want = oracle_homs(D, E, bound)
        assert hom_images(D, E) == want
        kept += len(want)
        rejected += len(D.index) ** len(E.index) - len(want)
    assert kept and rejected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collapsed_case_keeps_every_map(n):
    A = kcat([[NINF] * n] * n)
    assert functor_images(A, A) == oracle_functors(A, A) == list(product(A.objects, repeat=n))
    D = lcs([[NINF] * n] * n, labels=("v", "w", "x")[:n])
    assert hom_images(D, D) == oracle_homs(D, D, 2) == list(product(D.index, repeat=n))


@pytest.mark.parametrize("lattice", LATTICES)
def test_empty_and_single_object_searches(lattice):
    L = get_lattice(lattice)
    rng = random.Random("edges/" + lattice)
    empty = make_category(L, (), ())
    for _ in range(10):
        one = random_category(rng, L, 1, ("a",))
        some = random_category(rng, L, rng.randint(1, 3), ("x", "y", "z"))
        assert functor_images(empty, some) == [()]
        assert functor_images(empty, empty) == [()]
        assert functor_images(some, empty) == []
        for A, B in ((one, some), (some, one), (one, one)):
            assert functor_images(A, B) == oracle_functors(A, B)


def test_empty_and_single_index_hom_searches():
    rng = random.Random(77)
    empty = make_lcs((), ())
    for _ in range(10):
        one = random_lcs(rng, 1, ("v",))
        some = random_lcs(rng, rng.randint(1, 3), ("p", "q", "r"))
        assert hom_images(some, empty) == [()]
        assert hom_images(empty, some) == []
        for D, E in ((one, some), (some, one), (one, one)):
            assert hom_images(D, E) == oracle_homs(D, E, 3)


@pytest.mark.parametrize("lattice", LATTICES)
def test_search_work_is_bounded_by_the_condition_table(lattice):
    L = get_lattice(lattice)
    rng = random.Random("work/" + lattice)
    pairs = [(random_category(rng, L, rng.randint(0, 4), "abcd"),
              random_category(rng, L, rng.randint(0, 5), "vwxyz")) for _ in range(30)]
    if lattice == "kbar":
        collapsed = kcat([[NINF] * 4] * 4)
        pairs.append((collapsed, kcat([[NINF] * 5] * 5)))
    for A, B in pairs:
        calls = []

        def leq(s, d):
            calls.append(1)
            return L.leq(s, d)

        levels = [list(level) for level in _index_maps(A.hom, B.hom, leq)]
        for level in levels:
            assert level
            assert len({c[:-1] for c in level}) == 1
        got = [c for level in levels for c in level]
        assert [tuple(B.objects[j] for j in c) for c in got] == oracle_functors(A, B)
        assert len(calls) <= len({v for row in A.hom for v in row}) * len(B.objects) ** 2


def asymmetric_metric(rng, n):
    """d(a, b) = 2|y_b - y_a| + (y_b - y_a) for random heights y."""
    y = [rng.randint(0, 12) for _ in range(n)]
    return [[2 * abs(y[j] - y[i]) + (y[j] - y[i]) for j in range(n)] for i in range(n)]


def five_to_six(kind):
    rng = random.Random("five-to-six/" + kind)
    A = kcat(asymmetric_metric(rng, 5), labels=tuple("abcde"))
    B = kcat([[NINF] * 6] * 6 if kind == "collapsed" else asymmetric_metric(rng, 6),
             labels=tuple("uvwxyz"))
    return A, B


@pytest.mark.parametrize("kind", ["sparse-1", "sparse-2", "collapsed"])
def test_five_to_six_searches_match_oracle(kind):
    A, B = five_to_six(kind)
    want = oracle_functors(A, B)
    assert functor_images(A, B) == want
    assert hom_images(cat_to_lcs(B), cat_to_lcs(A)) == want
    if kind == "collapsed":
        assert len(want) == 6 ** 5


def test_every_search_result_is_checked(monkeypatch):
    # the positions check lives in VFunctor.__init__, so every result must pass through it
    calls = []
    init = VFunctor.__init__

    def counted(self, domain, codomain, positions):
        calls.append(positions)
        init(self, domain, codomain, positions)

    monkeypatch.setattr(VFunctor, "__init__", counted)
    A, B = five_to_six("collapsed")
    assert len(enumerate_functors(A, B)) == len(calls) == 6 ** 5
    calls.clear()
    assert len(enumerate_homs(cat_to_lcs(B), cat_to_lcs(A))) == len(calls) == 6 ** 5


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("n", [1, 2])
def test_one_and_two_object_domains_match_oracle(lattice, n):
    # the last object's values are emitted as one level; with one object
    # that level is the first, with two it hangs off the first
    L = get_lattice(lattice)
    rng = random.Random("last-level/%s/%d" % (lattice, n))
    kept = rejected = 0
    for _ in range(40):
        A = random_category(rng, L, n, ("a", "b"))
        B = random_category(rng, L, rng.randint(1, 6), "uvwxyz")
        want = oracle_functors(A, B)
        assert functor_images(A, B) == want
        kept += len(want)
        rejected += len(B.objects) ** n - len(want)
    assert kept and rejected


@pytest.mark.parametrize("kind", ["collapsed", "random"])
@pytest.mark.parametrize("n,m", [(2, 70), (3, 66)])
def test_codomains_wider_than_a_machine_word(kind, n, m):
    rng = random.Random("wide/%s/%d" % (kind, m))
    A = kcat(asymmetric_metric(rng, n), labels=tuple("abc"[:n]))
    B = kcat([[NINF] * m] * m if kind == "collapsed" else asymmetric_metric(rng, m),
             labels=tuple("o%d" % k for k in range(m)))
    want = oracle_functors(A, B)
    assert functor_images(A, B) == want
    assert hom_images(cat_to_lcs(B), cat_to_lcs(A)) == want
    assert len(want) == m ** n if kind == "collapsed" else 0 < len(want) < m ** n


def test_grid_members_wider_than_a_machine_word():
    # carrier_grid(40) has 83 values, so each domain mask spans 83 bits
    rng = random.Random(4040)
    pool = [NINF, INF] + list(range(-50, 51))
    found = 0
    sets = [lcs([[x]], labels=("v",)) for x in (NINF, 0, INF, 3, -3)]
    sets += [lcs([[rng.choice(pool) for _ in range(2)] for _ in range(2)]) for _ in range(3)]
    for D in sets:
        want = _grid_by_member(D, 40)
        assert grid_members(D, 40) == want
        found += len(want)
    assert found
