"""Brute-force oracle for `enumerate_functors` and `enumerate_homs`.

Both searches run on one shared index-map engine, so comparing them with
each other (acceptance criterion 4) cannot catch a fault in that engine.
Here every index map is tried and checked by the definitions, written out
independently: functors by the per-pair increasing condition, homs by
pulling back grid members and canonical points.  A work count holds the
search to exactly one order call per distinct source value and target
entry, and the same test pins the search's levels: non-empty, each a run
of maps that differ only in their last three positions (two or fewer on a
domain of at most three objects), with one tails tuple shared by every
level whose tails are equal.
"""

import copy
import gc
import inspect
import pickle
import random
import sys
from itertools import product
from math import isfinite

import pytest

from lcdual.lattices import get_lattice
from lcdual import categories
from lcdual.categories import (
    VFunctor, VCategory, enumerate_functors, _index_maps, _packed, _bits,
)
from lcdual.scalars import POS_INF, fin
from lcdual.lconvex import (
    closure, member, grid_members, canonical_points, make_lcs,
)
from lcdual.duality import enumerate_homs, cat_to_lcs

from conftest import INF, NINF, kcat
from test_lconvex import lcs, _grid_by_member
from test_classify import plain_law_ok


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
    return VCategory(L, labels[:n], [[rng.choice(grid) for _ in range(n)]
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
    empty = VCategory(L, (), ())
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
    collapsed = None
    if lattice == "kbar":
        collapsed = kcat([[NINF] * 4] * 4)
        pairs.append((collapsed, kcat([[NINF] * 5] * 5)))
    for A, B in pairs:
        calls = []

        def leq(s, d):
            calls.append(1)
            return L.leq(s, d)

        levels = list(_index_maps(A.hom, B.hom, leq))
        n = len(A.objects)
        w = 3 if n >= 4 else min(n, 2)  # the tail width
        got, shared = [], {}
        for prefix, tails in levels:
            assert tails
            if A.objects:
                assert len(prefix) == max(n - w, 0)
                assert all(len(t) == w for t in tails)
                assert list(tails) == sorted(set(tails))
            else:
                assert (prefix, tails) == ((), ((),))
            assert shared.setdefault(tails, tails) is tails
            got += [prefix + t for t in tails]
        assert len(levels) == len({prefix for prefix, _ in levels})
        assert len(levels) <= len(B.objects) ** max(n - w, 0)
        if A is collapsed:
            assert len(levels) == 5 and len(shared) == 1
        assert [tuple(B.objects[j] for j in c) for c in got] == oracle_functors(A, B)
        assert len(calls) == len({v for row in A.hom for v in row}) * len(B.objects) ** 2


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 200])
def test_packed_flags_read_back_through_bits(length):
    rng = random.Random("packed/%d" % length)
    for flags in ([False] * length, [True] * length,
                  [rng.random() < 0.5 for _ in range(length)]):
        mask = _packed(flags)
        assert _bits(mask) == [k for k, f in enumerate(flags) if f]
        assert _packed(bytes(flags)) == mask < 1 << length
    assert _bits(0) == []


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


# bad entries, for a prefix position or a tail value: out of range, negative, True, 1.0
BAD_ENTRIES = [6, -1, True, 1.0]


def _bad_levels(levels):
    """Each way to spoil one level of levels, at the first, a middle and the last level."""
    for where in (0, len(levels) // 2, len(levels) - 1):
        prefix, tails = levels[where]
        # the tail (1, 1, 1) where there is one: spoiled by True or 1.0 in any
        # coordinate, the level still equals the one the search emits, by value
        k = tails.index((1, 1, 1)) if (1, 1, 1) in tails else len(tails) - 1
        tail = tails[k]
        spoiled = [(prefix[:-1] + (bad,), tails) for bad in BAD_ENTRIES]
        spoiled += [(prefix, tails[:k] + (tail[:j] + (bad,) + tail[j + 1:],) + tails[k + 1:])
                    for bad in BAD_ENTRIES for j in range(3)]
        spoiled += [(prefix[:-1], tails), (prefix + (0,), tails),  # short and long prefix
                    (prefix, tails[:1] + ((0, 0),) + tails[1:]),  # a 2-tuple tail
                    (prefix, tails[:1] + ((0, 0, 0, 0),) + tails[1:])]  # a 4-tuple tail
        for level in spoiled:
            yield levels[:where] + [level] + levels[where + 1:]


@pytest.mark.parametrize("kind", ["collapsed", "sparse-1"])
def test_every_search_result_is_checked(monkeypatch, kind):
    # the check sits in _functors, not in the search: a search that emits a
    # bad position anywhere is refused by both enumerators, never returned
    A, B = five_to_six(kind)
    levels = list(_index_maps(A.hom, B.hom, A.lattice.leq))
    assert len(levels) >= 3
    DB, EA = cat_to_lcs(B), cat_to_lcs(A)
    cases = 0
    for spoiled in _bad_levels(levels):
        monkeypatch.setattr(categories, "_index_maps", lambda *args, spoiled=spoiled: iter(spoiled))
        for search in (lambda: enumerate_functors(A, B), lambda: enumerate_homs(DB, EA)):
            with pytest.raises(ValueError, match="^a functor needs one codomain index per domain object$"):
                search()
            cases += 1
    assert cases == 3 * 20 * 2


def _bulk_built_cases():
    for kind in ("collapsed", "sparse-1"):
        yield five_to_six(kind)
    rng = random.Random("bulk")
    for lattice in LATTICES:
        L = get_lattice(lattice)
        # the search's split: up to 2 objects, an empty head beside a tail of
        # every position; 3 and 4, a 1-position head beside a 2- and a 3-position tail
        for n in (0, 1, 2, 3, 4):
            for _ in range(5):
                yield (random_category(rng, L, n, "abcd"),
                       random_category(rng, L, rng.randint(1, 4), "wxyz"))


def test_bulk_built_functors_equal_constructed_ones():
    # a search builds its results past VFunctor.__new__, from the head and
    # tail it holds, while the constructor keeps every position in the head;
    # any split of the positions into head and tail, the search's or another,
    # must give the constructed value in every observable way, also through
    # every pickle protocol, of which 0 and 1 rebuild them past __new__ too
    names = list(inspect.signature(VFunctor).parameters)

    def observed(maps, objects):  # each map's hash, repr, images and object map
        return [(hash(F), repr(F), list(map(F, objects)), F.object_map) for F in maps]

    total = 0
    for A, B in _bulk_built_cases():
        fs = enumerate_functors(A, B)
        for F in fs:
            assert copy.copy(F) == F
            assert all(hasattr(F, name) for name in names)
            assert (F.domain, F.codomain) == (A, B)
            assert type(F.positions) is tuple and len(F.positions) == len(A.objects)
            images = [F(a) for a in A.objects]
            assert images == [B.objects[j] for j in F.positions]
            assert F.object_map == tuple(zip(A.objects, images))
        constructed = [VFunctor(A, B, F.positions) for F in fs]
        want = observed(constructed, A.objects)
        splits = [[tuple.__new__(VFunctor, (A, B, F.positions[:k], F.positions[k:])) for F in fs]
                  for k in range(len(A.objects) + 1)]
        for rebuilt in [fs] + splits:
            assert rebuilt == constructed and observed(rebuilt, A.objects) == want
            for protocol in range(6):
                assert pickle.loads(pickle.dumps(rebuilt, protocol)) == constructed
        assert copy.deepcopy(fs) == fs
        total += len(fs)
    assert total > 6 ** 5


def test_a_dense_search_runs_no_python_frame_per_result():
    # the results are built in C-level passes, so the Python calls of a search
    # (checks, tables, generator resumptions) scale with its levels, not its maps
    A, B = five_to_six("collapsed")
    levels = list(_index_maps(A.hom, B.hom, A.lattice.leq))
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        fs = enumerate_functors(A, B)
    finally:
        sys.setprofile(outer)
    assert len(fs) == 6 ** 5 and len(levels) == 6 ** 2
    assert len(calls) <= 5 * 6 ** 3


def test_a_dense_search_leaves_one_tracked_object_per_result():
    # each result is one tuple sharing the level's prefix and an entry of the
    # search's tails table, so the tracked objects it leaves are its maps,
    # those prefixes and entries, and the result list, not a positions tuple
    # per map as well; the cyclic collector's work scales with them
    for n, (A, B) in ((5, five_to_six("collapsed")), (6, (kcat([[NINF] * 6] * 6),) * 2)):
        levels = list(_index_maps(A.hom, B.hom, A.lattice.leq))
        entries = {t for _, tails in levels for t in tails}
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            fs = enumerate_functors(A, B)
            rise = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert (len(fs), len(levels), len(entries)) == (6 ** n, 6 ** (n - 3), 6 ** 3)
        assert rise <= len(fs) + len(levels) + len(entries) + 1
        del fs


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_one_and_two_object_domains_match_oracle(lattice, n):
    # the last objects' values are emitted as one level: with up to two
    # objects, all of them in the one level; with three, the last two,
    # hanging off the first object; with four or five, the last three,
    # after a prefix of one or two objects
    L = get_lattice(lattice)
    rng = random.Random("last-level/%s/%d" % (lattice, n))
    kept = rejected = 0
    for _ in range(40):
        A = random_category(rng, L, n, "abcde")
        # at most 4 codomain objects beside 4 or 5 domain objects, so the oracle stays cheap
        B = random_category(rng, L, rng.randint(1, 6 if n <= 3 else 4), "uvwxyz")
        want = oracle_functors(A, B)
        assert functor_images(A, B) == want
        kept += len(want)
        rejected += len(B.objects) ** n - len(want)
    # an empty domain has one map, the empty one, and rejects none
    assert kept and (rejected if n else not rejected)


def test_every_pair_of_two_object_categories_on_the_grid():
    # bounded-exhaustive: every valid 2-object kbar category with entries in
    # {-inf, -1, 0, 1, inf}, as domain and as codomain, against the oracle;
    # validity is decided on plain numbers, not by the library
    cats = [kcat(rows) for m in product([NINF, -1, 0, 1, INF], repeat=4)
            for rows in [(m[:2], m[2:])] if plain_law_ok(rows)]
    assert len(cats) == 25
    kept = rejected = 0
    for A in cats:
        for B in cats:
            want = oracle_functors(A, B)
            assert functor_images(A, B) == want
            assert hom_images(cat_to_lcs(B), cat_to_lcs(A)) == want
            kept += len(want)
            rejected += 4 - len(want)
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
