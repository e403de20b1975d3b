import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lcdual.scalars import NEG_INF, POS_INF, fin, ext_sub
from lcdual.lattices import get_lattice
from lcdual.categories import VCategory, validate_category
from lcdual.duality import cat_to_lcs
from lcdual.lconvex import (
    LConvexSet, PointVector, RawConstraints, GeneratorSet,
    make_lcs, validate_lcs, member, from_generators, closure, weight_shift,
    point_sup, point_inf, canonical_points, grid_members, murota_check,
)

from conftest import kcat, random_valid_lcs


def lcs(rows, labels=("v", "w")):
    conv = []
    for row in rows:
        conv.append([POS_INF if x == float("inf")
                     else NEG_INF if x == float("-inf") else fin(x) for x in row])
    return make_lcs(labels, conv)


def pt(**coords):
    out = {}
    for k, v in coords.items():
        out[k] = (POS_INF if v == float("inf")
                  else NEG_INF if v == float("-inf") else fin(v))
    return PointVector(out)


INF = float("inf")
NINF = float("-inf")


@pytest.mark.parametrize("kind", ["int", "real"])
def test_lcs_is_a_category_over_kbar(kind):
    D = make_lcs(("v", "w"), [[fin(0), fin(1)], [fin(2), fin(0)]], kind)
    assert isinstance(D, VCategory)
    assert D.lattice == get_lattice("kbar", kind) and D.scalar_kind == kind
    assert (D.index, D.dbm, D.bound("w", "v")) == (D.objects, D.hom, D.hom_at("w", "v"))


def test_validate_lcs_is_the_category_check():
    rng = random.Random(21)
    pool = [NEG_INF, POS_INF] + [fin(v) for v in range(-2, 3)]
    for _ in range(50):
        n = rng.randint(1, 3)
        D = make_lcs("vwx"[:n], [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        assert validate_lcs(D) == validate_category(D)


def test_lcs_equality_and_hash():
    A = kcat([[0, 1], [1, 0]], labels=("v", "w"))
    D = cat_to_lcs(A)
    assert D != A and A != D
    E = lcs([[0, 1], [1, 0]])
    assert D == E and hash(D) == hash(E)


def test_lcs_shape_checks():
    with pytest.raises(ValueError):
        make_lcs(("v", "v"), [[fin(0), fin(0)], [fin(0), fin(0)]])
    with pytest.raises(ValueError):
        make_lcs(("v", "w"), [[fin(0), fin(0)], [fin(0)]])


def test_member_band():
    D = lcs([[0, 1], [1, 0]])
    assert member(D, pt(v=0, w=1))
    assert not member(D, pt(v=0, w=2))


def test_member_infinities():
    D = lcs([[NINF, NINF], [NINF, NINF]])
    assert member(D, pt(v=INF, w=INF))
    assert member(D, pt(v=NINF, w=NINF))
    assert not member(D, pt(v=NINF, w=INF))


def test_extreme_points_always_members():
    rng = random.Random(3)
    for _ in range(25):
        D = random_valid_lcs(rng, 3)
        assert member(D, pt(v=INF, w=INF, x=INF))
        assert member(D, pt(v=NINF, w=NINF, x=NINF))


def test_from_generators_examples():
    S = GeneratorSet(("v", "w"), (pt(v=0, w=0), pt(v=1, w=0)))
    assert from_generators(S).dbm == lcs([[0, 0], [1, 0]]).dbm
    empty = from_generators(GeneratorSet(("v", "w"), ()))
    assert empty.dbm == lcs([[NINF, NINF], [NINF, NINF]]).dbm
    single = from_generators(GeneratorSet(("v", "w"), (pt(v=0, w=0),)))
    assert single.dbm == lcs([[0, 0], [0, 0]]).dbm


def test_from_generators_contains_generators_and_is_minimal():
    rng = random.Random(5)
    grid = [NINF, -2, -1, 0, 1, 2, INF]
    for _ in range(30):
        pts = [pt(v=rng.choice(grid), w=rng.choice(grid)) for _ in range(3)]
        D = from_generators(GeneratorSet(("v", "w"), tuple(pts)))
        assert validate_lcs(D) == []
        for p in pts:
            assert member(D, p)
        # minimality relative to any other valid set containing the points
        E = random_valid_lcs(rng, 2)
        if all(member(E, p) for p in pts):
            for q in grid_members(D, 3):
                assert member(E, q)


def test_closure_examples():
    neg = closure(RawConstraints("int", ("v", "w"),
                                 ((fin(0), fin(-1)), (fin(-1), fin(0)))))
    assert all(x == NEG_INF for row in neg.dbm for x in row)
    assert grid_members(neg, 3) == [pt(v=NINF, w=NINF), pt(v=INF, w=INF)]

    untouched = closure(RawConstraints("int", ("v", "w"),
                                       ((fin(0), fin(3)), (fin(4), fin(0)))))
    assert untouched.dbm == lcs([[0, 3], [4, 0]]).dbm

    clamped = closure(RawConstraints("int", ("v", "w"),
                                     ((fin(0), fin(1)), (fin(1), fin(5)))))
    assert clamped.dbm == lcs([[0, 1], [1, 0]]).dbm


def test_closure_always_valid():
    rng = random.Random(9)
    for _ in range(100):
        D = random_valid_lcs(rng, rng.randint(1, 4))
        assert validate_lcs(D) == []


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_closure_idempotent(seed):
    rng = random.Random(seed)
    D = random_valid_lcs(rng, rng.randint(1, 4))
    again = closure(RawConstraints("int", D.index, D.dbm))
    assert again.dbm == D.dbm


def test_weight_shift():
    assert weight_shift(pt(v=0, w=1), POS_INF, "plus") == pt(v=INF, w=INF)
    shifted = weight_shift(pt(v=0, w=NINF), NEG_INF, "minus")
    assert shifted == pt(v=INF, w=NINF)
    assert weight_shift(pt(v=2, w=5), fin(3), "plus") == pt(v=5, w=8)


def test_point_sup_inf():
    assert point_sup([], index=("v", "w")) == pt(v=INF, w=INF)
    assert point_inf([pt(v=0, w=1), pt(v=1, w=0)]) == pt(v=1, w=1)
    assert point_sup([pt(v=0, w=1), pt(v=1, w=0)]) == pt(v=0, w=0)


def test_membership_closed_under_lattice_ops_and_shifts():
    # order and weight completeness, exercised on grid members
    rng = random.Random(13)
    shifts = [NEG_INF, fin(-2), fin(0), fin(1), POS_INF]
    for _ in range(15):
        D = random_valid_lcs(rng, 2)
        members = grid_members(D, 2)
        sample = members if len(members) <= 12 else rng.sample(members, 12)
        for p in sample:
            for q in sample:
                assert member(D, point_sup([p, q]))
                assert member(D, point_inf([p, q]))
            for alpha in shifts:
                assert member(D, weight_shift(p, alpha, "plus"))
                assert member(D, weight_shift(p, alpha, "minus"))


def test_canonical_points():
    D = lcs([[0, 3], [4, 0]])
    rows = canonical_points(D)
    assert rows == [pt(v=0, w=3), pt(v=4, w=0)]
    for p in rows:
        assert member(D, p)
    allninf = lcs([[NINF, NINF], [NINF, NINF]])
    assert canonical_points(allninf) == [pt(v=NINF, w=NINF), pt(v=NINF, w=NINF)]


def test_canonical_points_regenerate():
    rng = random.Random(17)
    for _ in range(40):
        D = random_valid_lcs(rng, rng.randint(2, 4))
        for p in canonical_points(D):
            assert member(D, p)
        if all(D.bound(v, v) == fin(0) for v in D.index):
            back = from_generators(GeneratorSet(D.index, tuple(canonical_points(D))))
            assert back.dbm == D.dbm


def test_grid_members_against_direct_check():
    # independent oracle: re-check every enumerated point, and count
    # non-members directly
    D = lcs([[NINF, NINF], [INF, 0]])
    values = [NINF, -1, 0, 1, INF]
    got = grid_members(D, 1)
    expected = []
    for a, b in product(values, repeat=2):
        p = pt(v=a, w=b)
        ok = all(D.bound(x, y).num >= ext_sub(p[y], p[x]).num
                 for x in ("v", "w") for y in ("v", "w"))
        if ok:
            expected.append(p)
    assert got == expected


def test_grid_members_whole_plane():
    D = lcs([[0, INF], [INF, 0]])
    assert len(grid_members(D, 1)) == 25


def test_grid_members_rejects_real_kind():
    D = LConvexSet("real", ("v",), ((fin(0.0),),))
    with pytest.raises(ValueError):
        grid_members(D)


def test_murota_check():
    good = [pt(v=0, w=0), pt(v=1, w=1)]
    assert murota_check(good)
    assert not murota_check([])
    missing_join = [pt(v=0, w=0), pt(v=1, w=0), pt(v=0, w=1)]
    assert not murota_check(missing_join)
    with pytest.raises(ValueError):
        murota_check([pt(v=INF, w=0)])
    with pytest.raises(ValueError):
        murota_check(good, kind="other")
