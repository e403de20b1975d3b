import random
from decimal import Decimal
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from lcdual.scalars import NEG_INF, POS_INF, fin, ext_sub, format_scalar
from lcdual.lattices import get_lattice
from lcdual.categories import VCategory, Presheaf, opposite, validate_category
from lcdual.duality import cat_to_lcs, make_homomorphism, pullback
from lcdual.lconvex import (
    LConvexSet, GeneratorSet,
    make_lcs, validate_lcs, member, from_generators, closure, weight_shift,
    point_sup, point_inf, canonical_points, grid_members,
)

from conftest import kcat, random_valid_lcs


def lcs(rows, labels=("v", "w")):
    conv = []
    for row in rows:
        conv.append([POS_INF if x == float("inf")
                     else NEG_INF if x == float("-inf") else fin(x) for x in row])
    return make_lcs(labels, conv)


def pt(**coords):
    """The point with these coordinates, given in index order."""
    return tuple(POS_INF if v == float("inf")
                 else NEG_INF if v == float("-inf") else fin(v) for v in coords.values())


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


def test_lcs_takes_the_category_fields():
    D = lcs([[0, 1], [1, 0]])
    assert LConvexSet(lattice=D.lattice, objects=D.objects, hom=D.hom) == D
    E = LConvexSet(lattice=D.lattice, objects=D.objects, hom=[[fin(0), fin(2)], [fin(1), fin(0)]])
    assert isinstance(E, LConvexSet) and E.dbm == ((0, 2), (1, 0)) and E.index == D.index
    for name in ("two", "kbar_plus", "kbar_plus_cart"):
        L = get_lattice(name)
        # closure refuses such a matrix too, before its pass
        for make in (LConvexSet, lambda *fields: closure(VCategory(*fields))):
            with pytest.raises(ValueError, match="^an L-convex set needs the kbar lattice, not "):
                make(L, ("v",), ((L.unit,),))


def test_lcs_shape_checks():
    with pytest.raises(ValueError):
        make_lcs(("v", "v"), [[fin(0), fin(0)], [fin(0), fin(0)]])
    with pytest.raises(ValueError):
        make_lcs(("v", "w"), [[fin(0), fin(0)], [fin(0)]])


def test_entries_must_lie_in_the_carrier():
    half = Decimal("0.5")
    with pytest.raises(ValueError, match="^outside carrier: 0.5$"):
        make_lcs(("v",), [[half]])
    assert make_lcs(("v",), [[half]], "real").dbm == ((half,),)
    for kind, bads in (("int", (True, half, Decimal("Infinity"))),
                       ("real", (True, 0.5, Decimal("Infinity"), Decimal("NaN")))):
        D = make_lcs(("v", "w"), [[0, POS_INF], [POS_INF, 0]], kind)
        phi = make_homomorphism(D, D, {"v": "v", "w": "w"})
        for bad in bads:
            # the first entry off the carrier is named, wherever it sits
            for rows in ([[bad]], [[0, 0], [bad, 0]], [[0, bad], [0.5, 0]]):
                with pytest.raises(ValueError) as err:
                    make_lcs(("v", "w")[:len(rows)], rows, kind)
                assert str(err.value) == "outside carrier: %s" % format_scalar(bad)
            # and so is the first coordinate off it, in generators and query points;
            # weight_shift takes any real payload, so the int kind's half passes it
            checks = [lambda: GeneratorSet(("v", "w"), ((0, 0), (1, bad), (0.5, 0)), kind),
                      lambda: member(D, (bad, 0.5)), lambda: pullback(phi, (0, bad))]
            if kind == "real":
                checks += [lambda: weight_shift((0, bad, 0.5), 1), lambda: weight_shift((0, 1), bad)]
            for check in checks:
                with pytest.raises(ValueError) as err:
                    check()
                assert str(err.value) == "outside carrier: %s" % format_scalar(bad)
    pts = (pt(v=half, w=Decimal("0.0")),)
    with pytest.raises(ValueError, match="^outside carrier: 0.5$"):
        from_generators(GeneratorSet(("v", "w"), pts))
    assert from_generators(GeneratorSet(("v", "w"), pts, "real")).bound("v", "w") == Decimal("-0.5")


def test_constraints_must_lie_in_the_carrier():
    # a fractional int-kind bound must not reach closure, to be truncated there
    rows = ((fin(0), Decimal("-0.5")), (POS_INF, fin(0)))
    with pytest.raises(ValueError, match="carrier"):
        closure(make_lcs(("v", "w"), rows))
    D = closure(make_lcs(("v", "w"), rows, "real"))
    assert D.bound("v", "w") == Decimal("-0.5")


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


def test_from_generators_bounds_past_the_float_range():
    # w - v and v - w leave the float range on the first point, but the
    # other points decide both bounds
    far, z = pt(v=Decimal("-1e308"), w=Decimal("1e308")), Decimal("0.0")
    S = GeneratorSet(("v", "w"), (far, pt(v=z, w=INF), pt(v=z, w=z)), "real")
    assert from_generators(S).dbm == ((z, INF), (z, z))
    # alone, the point's differences are the exact bounds
    D = from_generators(GeneratorSet(("v", "w"), (far,), "real"))
    assert D.dbm == ((z, Decimal("2E+308")), (Decimal("-2E+308"), z))


def reference_from_generators(S):
    """The bound loop that `from_generators` replaced by the residuation kernel."""
    n = len(S.index)
    inf = get_lattice("kbar", S.scalar_kind).inf
    rows = tuple(tuple(inf([ext_sub(p[w], p[v]) for p in S.points]) for w in range(n))
                 for v in range(n))
    return LConvexSet(get_lattice("kbar", S.scalar_kind), S.index, rows)


HULL_COORDS = {
    "int": [NEG_INF, -2, -1, 0, 1, 2, POS_INF],
    # equal values with different payloads: on a tie the first generator's payload wins
    "real": [NEG_INF, -1, 0, 1, Decimal("-1.0"), Decimal("0.0"), Decimal("1.0"), Decimal("0.5"),
             Decimal("-2.5"), POS_INF],
}


@pytest.mark.parametrize("kind", ["int", "real"])
def test_from_generators_matches_reference(kind):
    rng, coords = random.Random(kind), HULL_COORDS[kind]
    for n in range(5):
        index = tuple("vwxyz"[:n])
        for k in range(6):
            for _ in range(14):
                pts = tuple(tuple(rng.choice(coords) for _ in range(n)) for _ in range(k))
                got = from_generators(GeneratorSet(index, pts, kind)).dbm
                want = reference_from_generators(GeneratorSet(index, pts, kind)).dbm
                assert got == want, pts
                assert ([[(type(x), format_scalar(x)) for x in row] for row in got]
                        == [[(type(x), format_scalar(x)) for x in row] for row in want]), pts


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
    neg = closure(lcs([[0, -1], [-1, 0]]))
    assert all(x == NEG_INF for row in neg.dbm for x in row)
    assert grid_members(neg, 3) == [pt(v=NINF, w=NINF), pt(v=INF, w=INF)]

    untouched = closure(lcs([[0, 3], [4, 0]]))
    assert untouched.dbm == lcs([[0, 3], [4, 0]]).dbm

    clamped = closure(lcs([[0, 1], [1, 5]]))
    assert clamped.dbm == lcs([[0, 1], [1, 0]]).dbm
    # any category over kbar closes, not only an LConvexSet
    assert closure(kcat([[0, 1], [1, 5]], labels=("v", "w"))) == clamped


def _chain(zero, step, n=3):
    """A path through n indices with every step `step`, other off-diagonal bounds open."""
    return tuple(tuple(zero if j == i else step if j == i + 1 else POS_INF for j in range(n))
                 for i in range(n))


def real(x):
    """A real payload from its literal; the infinities pass through."""
    return x if x in (INF, NINF) else Decimal(x)


@pytest.mark.parametrize("sign", [1, -1])
def test_closure_rejects_real_bounds_beyond_the_float_range(sign):
    # bounds past the float range close to the exact sum, which prints as
    # it parses back
    D = closure(make_lcs(("v", "w", "x"), _chain(real("0.0"), real("%de308" % sign)), "real"))
    assert D.bound("v", "x") == real("%dE+308" % (2 * sign))
    assert format_scalar(D.bound("v", "x")) == "%dE+308" % (2 * sign)
    # every bound inside the float range, but three steps leave it
    D = closure(make_lcs(("v", "w", "x", "y"), _chain(real("0.0"), real("%de307" % (8 * sign)), 4),
                         "real"))
    assert format_scalar(D.bound("v", "y")) == "%sE+308" % ("2.4" if sign > 0 else "-2.4")
    # integer bounds of any size close exactly
    D = closure(make_lcs(("v", "w", "x"), _chain(fin(0), fin(sign * 10 ** 308))))
    assert D.bound("v", "x") == fin(sign * 2 * 10 ** 308)


def test_closure_lowers_partial_sums_beyond_the_float_range():
    # v -> w -> x leaves the float range when w is relaxed, but the later
    # index y closes (v, x) to 0
    z, big = real("0.0"), real("1e308")
    D = closure(make_lcs(("v", "w", "x", "y"),
                         ((z, big, POS_INF, z), (POS_INF, z, big, POS_INF),
                          (POS_INF, POS_INF, z, POS_INF), (POS_INF, POS_INF, z, z)), "real"))
    assert D.bound("v", "x") == z and D.bound("w", "x") == big
    # an integer bound too large for a float next to a negative cycle, either way round
    big = fin(10 ** 400)
    for rows, want in ((((fin(0), big), (POS_INF, fin(-1))), ((fin(0), NEG_INF), (POS_INF, NEG_INF))),
                       (((fin(-1), big), (POS_INF, fin(0))), ((NEG_INF, NEG_INF), (POS_INF, fin(0))))):
        assert closure(make_lcs(("v", "w"), rows)).dbm == want


def test_closure_exact_pass_agrees_with_the_float_pass():
    # scaling by 10**300 is exact and commutes with closure, so bounds far
    # past the float range close exactly like small ones
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(3, 6)
        pool = [NEG_INF, POS_INF, POS_INF] + [real(v) / 2 for v in range(-8, 11)]
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        scale = lambda x: x if x in (INF, NINF) else x.scaleb(300)
        index = tuple("abcdef"[:n])
        want = closure(make_lcs(index, rows, "real"))
        got = closure(make_lcs(index, [[scale(x) for x in row] for row in rows], "real"))
        assert got.dbm == tuple(tuple(scale(x) for x in row) for row in want.dbm)


def test_closure_collapses_huge_real_negative_cycles():
    # each step of the pass doubles the cycle's sum, far past the float
    # range; the cycle collapses to -inf
    n = 12
    rows = [[real("0.0") if i == j else real("-1e306") if j == (i + 1) % n else real("1e300")
             for j in range(n)] for i in range(n)]
    D = closure(make_lcs(tuple("i%d" % i for i in range(n)), rows, "real"))
    assert all(x == NEG_INF for row in D.dbm for x in row)
    # v reaches x through w, which lies on a negative cycle: the partial sum
    # -1e308 + -1e308 gives way to -inf
    big = real("-1e308")
    D = closure(make_lcs(("v", "w", "x"),
                         ((real("0.0"), big, POS_INF), (POS_INF, real("-1.0"), big),
                          (POS_INF, POS_INF, real("0.0"))), "real"))
    assert D.bound("v", "x") == NEG_INF and D.bound("x", "x") == 0


def test_closure_real_rounding_keeps_the_triangle_law():
    # (x, w) closes to 2 + 1e308 exactly, so x -> w -> v sums to 2, not
    # below the bound (x, v) = 2.0 as a float rounding would have it
    top = real("1.7976931348623157e308")
    rows = ((real("0.0"), real("1e308"), top), (real("-1e308"), top, POS_INF),
            (real("2.0"), top, top))
    D = closure(make_lcs(("v", "w", "x"), rows, "real"))
    assert validate_category(D) == []
    assert D.bound("x", "w") == 10 ** 308 + 2


def test_real_closures_of_one_decimal_inputs_are_exact():
    # one-decimal bounds in [-3, 9], one in five open: float closure broke
    # the triangle law on about one matrix in forty of these
    rng = random.Random(1)
    for _ in range(2000):
        n = rng.randint(3, 5)
        rows = [[POS_INF if rng.random() < 0.2 else real("%.1f" % rng.uniform(-3, 9))
                 for _ in range(n)] for _ in range(n)]
        D = closure(make_lcs("abcde"[:n], rows, "real"))
        assert validate_category(D) == []
        assert closure(D).dbm == D.dbm


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
    again = closure(D)
    assert again.dbm == D.dbm


def _closure_by_definition(m):
    """The closed matrix of m (numeric keys), straight from the definition.

    After the diagonal is clamped to at most 0, entry (i, j) is the least
    weight of a simple path from i to j (a simple cycle when i == j, the
    self-loop included), or -inf when some k with i ~> k ~> j lies on a
    negative simple cycle.  An inf entry is no edge.
    """
    n = len(m)
    d = [[min(x, 0) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]

    def weight(path):
        steps = [d[a][b] for a, b in zip(path, path[1:])]
        return INF if INF in steps else NINF if NINF in steps else sum(steps)

    best = []
    for i in range(n):
        row = []
        for j in range(n):
            others = [k for k in range(n) if k not in (i, j)]
            row.append(min(weight((i,) + mid + (j,))
                           for r in range(len(others) + 1) for mid in permutations(others, r)))
        best.append(row)
    reach = [[i == j or best[i][j] < INF for j in range(n)] for i in range(n)]
    negative = [k for k in range(n) if best[k][k] < 0]
    return [[NINF if any(reach[i][k] and reach[k][j] for k in negative) else best[i][j]
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("kind", ["int", "real"])
def test_closure_matches_definition(kind):
    rng = random.Random(31)
    # weighted toward inf and positive bounds, so that plain tightening is common too
    pool = [INF] * 8 + [NINF] + list(range(-3, 4)) + list(range(1, 4)) * 3
    for _ in range(1500):
        n = rng.randint(1, 5)
        m = [[real(rng.choice(pool)) / 2 if kind == "real" else rng.choice(pool)
              for _ in range(n)] for _ in range(n)]
        got = closure(make_lcs("vwxyz"[:n], m, kind))
        assert [list(row) for row in got.dbm] == _closure_by_definition(m)


def test_weight_shift():
    assert weight_shift(pt(v=0, w=1), POS_INF, "plus") == pt(v=INF, w=INF)
    shifted = weight_shift(pt(v=0, w=NINF), NEG_INF, "minus")
    assert shifted == pt(v=INF, w=NINF)
    assert weight_shift(pt(v=2, w=5), fin(3), "plus") == pt(v=5, w=8)
    with pytest.raises(ValueError, match="^sign must be 'plus' or 'minus'$"):
        weight_shift(pt(v=2, w=5), fin(3), "times")


def test_point_sup_inf():
    assert point_sup([], 2) == pt(v=INF, w=INF)
    assert point_inf([pt(v=0, w=1), pt(v=1, w=0)], 2) == pt(v=1, w=1)
    assert point_sup([pt(v=0, w=1), pt(v=1, w=0)], 2) == pt(v=0, w=0)


@pytest.mark.parametrize("p", [(fin(0),), (fin(0), fin(0), fin(5))], ids=["short", "long"])
def test_points_must_match_the_arity(p):
    D = lcs([[0, 1], [1, 0]])
    phi = make_homomorphism(D, D, {"v": "w", "w": "v"})
    for check in (lambda: member(D, p),
                  lambda: Presheaf(D, p),
                  lambda: Presheaf(opposite(D), p),
                  lambda: from_generators(GeneratorSet(("v", "w"), (pt(v=0, w=0), p))),
                  lambda: pullback(phi, p),
                  lambda: point_sup([pt(v=0, w=0), p], 2),
                  lambda: point_inf([pt(v=0, w=0), p], 2)):
        with pytest.raises(ValueError, match="^a point needs 2 coordinates, one per index$"):
            check()


def _halved(x):
    return x if x in (NEG_INF, POS_INF) else Decimal(x) / 2


def _doubled(x):
    return x if x in (NEG_INF, POS_INF) else int(2 * x)


def test_membership_closed_under_lattice_ops_and_shifts():
    # order and weight completeness, exercised on grid members; a real set is
    # an int one halved, whose members are the halved int members
    rng = random.Random(13)
    for kind, n in product(("int", "real"), (2, 3)):
        shifts = [NEG_INF, fin(-2), fin(0), fin(1), POS_INF]
        if kind == "real":
            shifts += [Decimal("-1.5"), Decimal("0.5")]
        for _ in range(15):
            D = random_valid_lcs(rng, n)
            members = grid_members(D, 2)
            if kind == "real":
                D = make_lcs(D.index, [list(map(_halved, row)) for row in D.dbm], "real")
                members = [tuple(map(_halved, p)) for p in members]
            sample = members if len(members) <= 12 else rng.sample(members, 12)
            for p in sample:
                for q in sample:
                    assert member(D, point_sup([p, q], n))
                    assert member(D, point_inf([p, q], n))
                for alpha in shifts:
                    assert member(D, weight_shift(p, alpha, "plus"))
                    assert member(D, weight_shift(p, alpha, "minus"))


# payloads of the real carrier: ints, finite Decimals and both infinities
_PAYLOADS = st.one_of(st.integers(-10**20, 10**20),
                      st.decimals(-10**6, 10**6, allow_nan=False, allow_infinity=False, places=2),
                      st.sampled_from([NEG_INF, POS_INF]))
_REAL = get_lattice("kbar", "real")


def _typed(p):
    return [(type(x), format_scalar(x)) for x in p]


@settings(deadline=None, max_examples=300)
@given(st.lists(_PAYLOADS, max_size=4), _PAYLOADS)
def test_weight_shift_is_the_tensor_and_its_adjoint(p, alpha):
    # alpha (x) p and the hom out of alpha, coordinate by coordinate
    assert _typed(weight_shift(p, alpha, "plus")) == _typed(_REAL.tensor(x, alpha) for x in p)
    assert _typed(weight_shift(p, alpha, "minus")) == _typed(_REAL.hom(alpha, x) for x in p)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[_PAYLOADS] * n), max_size=4))))
def test_point_sup_inf_are_the_pointwise_lattice_sup_inf(case):
    # the empty family included: the all-inf and all-(-inf) points
    n, points = case
    assert _typed(point_sup(points, n)) == _typed(_REAL.sup([p[i] for p in points]) for i in range(n))
    assert _typed(point_inf(points, n)) == _typed(_REAL.inf([p[i] for p in points]) for i in range(n))


def test_real_member_matches_the_int_grid_oracle():
    # doubling is an order isomorphism of kbar that commutes with + and -, so
    # p is a member of R iff 2p is a member of the int set 2R, and
    # grid_members finds those by search, without member
    rng = random.Random(4343)
    halves = [NEG_INF, POS_INF] + [Decimal(v) / 2 for v in range(-7, 8)]
    found = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        raw = make_lcs("vwx"[:n], [[rng.choice(halves) for _ in range(n)] for _ in range(n)], "real")
        for R in (raw, closure(raw)):
            doubled = make_lcs(R.index, [list(map(_doubled, row)) for row in R.dbm])
            for bound in range(3):
                members = set(grid_members(doubled, bound))
                grid = [NEG_INF] + [Decimal(v) / 2 for v in range(-bound, bound + 1)] + [POS_INF]
                for p in product(grid, repeat=n):
                    got = member(R, p)
                    assert got == (tuple(map(_doubled, p)) in members), (R.dbm, p)
                    found += got
    assert found


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
        ok = all(D.dbm[x][y] >= ext_sub(p[y], p[x])
                 for x in (0, 1) for y in (0, 1))
        if ok:
            expected.append(p)
    assert got == expected


def _grid_by_member(D, bound):
    """Every grid point, filtered through `member`, in lexicographic order."""
    grid = D.lattice.carrier_grid(bound)
    return [p for p in product(grid, repeat=len(D.index)) if member(D, p)]


def test_grid_members_matches_the_member_filter():
    rng = random.Random(4242)
    pool = [NEG_INF, POS_INF] + [fin(v) for v in range(-3, 4)]
    found = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        raw = make_lcs("vwx"[:n], [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        for D in (raw, closure(raw)):
            for bound in range(4):
                want = _grid_by_member(D, bound)
                assert grid_members(D, bound) == want
                found += len(want)
    assert found
    # four and five indices, where the search hands over its last three at
    # once: bounds from a hidden potential plus slack, so the sets are not empty
    wide = 0
    for n in (4, 5):
        for _ in range(4):
            pot = [rng.randint(-1, 1) for _ in range(n)]
            raw = make_lcs("vwxyz"[:n], [[fin(0) if i == j else rng.choice(
                [POS_INF, fin(pot[j] - pot[i] + rng.randint(0, 2))]) for j in range(n)]
                for i in range(n)])
            for D in (raw, closure(raw)):
                for bound in range(2):
                    want = _grid_by_member(D, bound)
                    assert grid_members(D, bound) == want
                    wide += len(want) - 2  # beyond the all -inf and all inf points
    assert wide


def test_grid_members_whole_plane():
    D = lcs([[0, INF], [INF, 0]])
    assert len(grid_members(D, 1)) == 25


def test_grid_members_rejects_real_kind():
    D = LConvexSet(get_lattice("kbar", "real"), ("v",), ((Decimal("0.0"),),))
    with pytest.raises(ValueError):
        grid_members(D)


def murota_check(points, kind="lset"):
    """Toy-scale comparison predicate for classic L-convex point sets.

    Requires finite coordinates.  Checks nonemptiness, closure under
    binary coordinatewise min/max, and presence of the +-1 constant
    translations whenever the translated point stays inside the
    coordinate window spanned by the list.  Topological closedness for
    the polyhedral kind cannot be observed on a finite list and is left
    unchecked.
    """
    if kind not in ("lset", "lpoly"):
        raise ValueError("kind must be 'lset' or 'lpoly'")
    seen = set(points)
    if not seen:
        return False
    if any(x in (NEG_INF, POS_INF) for p in seen for x in p):
        raise ValueError("infinite coordinate in explicit point list")
    lo = min(min(t) for t in seen)
    hi = max(max(t) for t in seen)
    for a in seen:
        for b in seen:
            if tuple(min(x, y) for x, y in zip(a, b)) not in seen:
                return False
            if tuple(max(x, y) for x, y in zip(a, b)) not in seen:
                return False
    for a in seen:
        for delta in (1, -1):
            shifted = tuple(x + delta for x in a)
            if all(lo <= x <= hi for x in shifted) and shifted not in seen:
                return False
    return True


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
