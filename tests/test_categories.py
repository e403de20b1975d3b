import copy
import inspect
import operator
import pickle
import random
from decimal import Decimal
from itertools import product

import pytest

from lcdual.lattices import get_lattice
from lcdual.scalars import NEG_INF, POS_INF, TRUE, FALSE, fin, format_scalar, ext_add, ext_sub
from lcdual.categories import (
    VCategory, VFunctor, Presheaf, make_functor, identity_functor, make_presheaf,
    validate_category, opposite, is_functor, is_fully_faithful, is_isomorphism,
    compose_functors, functor_hom, canonical_leq, enumerate_functors,
    self_enrichment, is_presheaf, presheaf_dist, yoneda, co_yoneda, verify_yoneda,
    InvalidCategory, require_category, residuals,
)
from lcdual.lconvex import GeneratorSet, closure, make_lcs

from conftest import kcat, INF, NINF, random_valid_kcat


def test_validate_examples():
    assert validate_category(kcat([[0, 3], [4, 0]])) == []
    bad = validate_category(kcat([[0, 1], [-2, 0]]))
    assert bad and any("composition" in msg for msg in bad)
    assert validate_category(kcat([[NINF, NINF], [INF, 0]])) == []


def test_validate_identity_law():
    bad = validate_category(kcat([[1, INF], [INF, 0]]))
    assert any("identity" in msg for msg in bad)


def test_require_category_reports_each_distinct_input_in_order():
    good = kcat([[0, 3], [4, 0]])
    identity, composition = kcat([[1, INF], [INF, 0]]), kcat([[0, 1], [-2, 0]])
    require_category()
    require_category(good, good)
    with pytest.raises(InvalidCategory) as exc:
        require_category(composition, good, identity, kcat([[0, 1], [-2, 0]]))
    want = validate_category(composition) + validate_category(identity)
    assert exc.value.violations == want
    assert str(exc.value) == "not a valid category: " + "; ".join(want)
    assert isinstance(exc.value, ValueError)
    for twin in (copy.copy(exc.value), pickle.loads(pickle.dumps(exc.value))):
        assert (twin.violations, str(twin)) == (want, str(exc.value))


def test_a_category_built_from_lists_is_its_tuple_twin():
    L = get_lattice("kbar")
    C = VCategory(L, ["a", "b"], [[0, 1], [2, 0]])
    twin = VCategory(L, ("a", "b"), ((0, 1), (2, 0)))
    assert validate_category(C) == []
    assert (C.objects, C.hom) == (("a", "b"), ((0, 1), (2, 0)))
    assert verify_yoneda(C)
    assert C == twin and hash(C) == hash(twin)
    p = Presheaf(C, [1, 0])
    assert p.values == (1, 0) and p == yoneda(C, "b") and hash(p) == hash(yoneda(C, "b"))
    S, twin = GeneratorSet(["v", "w"], [[1, 0], [2, 3]]), GeneratorSet(("v", "w"), ((1, 0), (2, 3)))
    assert (S.index, S.points) == (twin.index, twin.points) and type(S.points[0]) is tuple
    assert S == twin and hash(S) == hash(twin)


def test_a_functor_built_from_a_list_is_its_tuple_twin():
    for A in (kcat([[0]]), kcat([[0, 3], [4, 0]])):
        for positions in ([0] * len(A.objects), list(range(len(A.objects)))):
            twin = VFunctor(A, A, tuple(positions))
            for F in (VFunctor(A, A, positions), VFunctor(domain=A, codomain=A, positions=positions)):
                assert F.positions == twin.positions and type(F.positions) is tuple
                assert F == twin and hash(F) == hash(twin)
                assert F in enumerate_functors(A, A)


def test_opposite():
    C = kcat([[0, 3], [4, 0]])
    assert opposite(C).hom == kcat([[0, 4], [3, 0]]).hom
    assert opposite(opposite(C)) == C
    sym = kcat([[0, 2], [2, 0]])
    assert opposite(sym) == sym


def test_opposite_preserves_validity():
    rng = random.Random(7)
    for _ in range(20):
        C = random_valid_kcat(rng, 3)
        assert validate_category(opposite(C)) == []


def test_functor_predicates():
    C = kcat([[0, INF], [INF, 0]])
    ident = identity_functor(C)
    assert is_functor(ident) and is_fully_faithful(ident) and is_isomorphism(ident)
    const = make_functor(C, C, {"a": "a", "b": "a"})
    assert is_functor(const) and not is_isomorphism(const)
    D = kcat([[0, 1], [2, 0]])
    swap = make_functor(D, D, {"a": "b", "b": "a"})
    assert not is_functor(swap)


def test_is_isomorphism_needs_both_halves():
    # fully faithful but not onto: two equal objects sent to one
    collapse = make_functor(kcat([[0, 0], [0, 0]]), kcat([[0]], labels=("u",)),
                            {"a": "u", "b": "u"})
    assert is_fully_faithful(collapse) and not is_isomorphism(collapse)
    # bijective but not fully faithful: a far pair sent to a near one
    closer = make_functor(kcat([[0, INF], [INF, 0]]), kcat([[0, 5], [5, 0]]), {"a": "a", "b": "b"})
    assert is_functor(closer) and not is_fully_faithful(closer) and not is_isomorphism(closer)


def test_compose_functors_through_an_equal_middle():
    # the middle categories need only be equal, not the same object
    C, twin = kcat([[0, INF], [INF, 0]]), kcat([[0, INF], [INF, 0]])
    assert C == twin and C is not twin
    swap = make_functor(C, C, {"a": "b", "b": "a"})
    into_twin = make_functor(C, twin, {"a": "b", "b": "a"})
    assert compose_functors(swap, into_twin).positions == (0, 1)


def test_compose_functors():
    C = kcat([[0, INF], [INF, 0]])
    ident = identity_functor(C)
    swap = make_functor(C, C, {"a": "b", "b": "a"})
    assert compose_functors(ident, swap)("a") == "b"
    double = compose_functors(swap, swap)
    assert all(double(x) == x for x in C.objects)


def test_functor_hom():
    C = kcat([[0, 3], [4, 0]])
    ident = identity_functor(C)
    assert functor_hom(ident, ident) == fin(0)
    const_b = make_functor(C, C, {"a": "b", "b": "b"})
    assert functor_hom(ident, const_b) == fin(3)
    empty = VCategory(get_lattice("kbar"), (), ())
    e_id = identity_functor(empty)
    assert functor_hom(e_id, e_id) == NEG_INF


def test_canonical_leq():
    C = kcat([[0, NINF], [INF, 0]])
    ident = identity_functor(C)
    const_b = make_functor(C, C, {"a": "b", "b": "b"})
    assert canonical_leq(ident, ident)
    assert canonical_leq(ident, const_b)
    D = kcat([[0, 3], [4, 0]])
    assert not canonical_leq(identity_functor(D),
                             make_functor(D, D, {"a": "b", "b": "b"}))


def test_canonical_leq_preorder_and_composition():
    # reflexivity, transitivity, and compatibility with composition,
    # exhaustively on a small category
    C = kcat([[0, 0], [1, 0]])
    fs = enumerate_functors(C, C)
    for F in fs:
        assert canonical_leq(F, F)
    for F in fs:
        for G in fs:
            for H in fs:
                if canonical_leq(F, G) and canonical_leq(G, H):
                    assert canonical_leq(F, H)
    for F in fs:
        for G in fs:
            if not canonical_leq(F, G):
                continue
            for H in fs:
                for K in fs:
                    if canonical_leq(H, K):
                        assert canonical_leq(compose_functors(H, F),
                                             compose_functors(K, G))


def test_enumerate_functors_counts():
    allninf = kcat([[NINF, NINF], [NINF, NINF]])
    assert len(enumerate_functors(allninf, allninf)) == 4
    plane = kcat([[0, INF], [INF, 0]])
    assert len(enumerate_functors(plane, plane)) == 4
    point = kcat([[0]])
    assert len(enumerate_functors(plane, point)) == 1
    band = kcat([[0, 1], [2, 0]])
    # only functors into the point and the identity-style maps survive
    for F in enumerate_functors(band, band):
        assert is_functor(F)


def test_self_enrichment_kbar():
    L = get_lattice("kbar")
    C = self_enrichment(L, [fin(0), fin(5)])
    assert C.hom == ((fin(0), fin(5)), (fin(-5), fin(0)))
    C2 = self_enrichment(L, [NEG_INF, POS_INF])
    assert C2.hom == ((NEG_INF, POS_INF), (NEG_INF, NEG_INF))
    assert validate_category(C2) == []


def test_self_enrichment_two():
    L = get_lattice("two")
    C = self_enrichment(L, [TRUE, FALSE])
    assert C.hom_at("true", "false") == FALSE
    assert C.hom_at("false", "true") == TRUE
    assert validate_category(C) == []


def test_self_enrichment_needs_distinct_labels():
    # 0 and Decimal(0) are both in the real carrier, and both print as 0
    with pytest.raises(ValueError, match="^carrier values must be distinct$"):
        self_enrichment(get_lattice("kbar", "real"), [0, Decimal(0)])


def test_self_enrichment_all_lattices_valid():
    for name in ("two", "kbar", "kbar_plus", "kbar_plus_cart"):
        L = get_lattice(name)
        C = self_enrichment(L, L.carrier_grid(2))
        assert validate_category(C) == []


def test_presheaf_checks():
    C = kcat([[0, 3], [4, 0]])
    p = make_presheaf(C, {"a": fin(0), "b": fin(3)})
    assert is_presheaf(p)
    q = make_presheaf(C, {"a": fin(0), "b": fin(-4)})
    assert not is_presheaf(q)  # d(a,b)=3 < p(a)-p(b)=4
    assert presheaf_dist(p, p) <= 0


def test_presheaf_needs_one_value_per_object():
    C = kcat([[0, 3], [4, 0]])
    for values in ((), (fin(0),), (fin(0), fin(0), fin(0))):
        with pytest.raises(ValueError, match="^a point needs 2 coordinates, one per index$"):
            Presheaf(C, values)


def test_make_presheaf_needs_exactly_the_base_objects():
    # the label rule of make_functor; make_presheaf once raised KeyError for a
    # missing label and dropped a stray one
    C = kcat([[0, 3], [4, 0]])
    with pytest.raises(ValueError, match="^no image given for 'b'$"):
        make_presheaf(C, {"a": fin(0)})
    with pytest.raises(ValueError, match="^'zz' is not a domain object$"):
        make_presheaf(C, {"a": fin(0), "b": fin(1), "zz": fin(5)})


def test_presheaf_dist_needs_one_base():
    p = make_presheaf(kcat([[0, 3], [4, 0]]), {"a": fin(0), "b": fin(3)})
    q = make_presheaf(kcat([[0, 3], [3, 0]]), {"a": fin(0), "b": fin(3)})
    with pytest.raises(ValueError, match="^presheaves live over different bases$"):
        presheaf_dist(p, q)


@pytest.mark.parametrize("values", [{"a": 0.5, "b": TRUE}, {"a": 0, "b": TRUE}, {"a": 0.5, "b": 0},
                                    {"a": 0, "b": Decimal("2.5")}])
def test_presheaf_values_must_lie_in_the_carrier(values):
    # an int kbar base admits neither floats, truth values nor Decimals; the first one off it is named
    bad = next(v for v in values.values() if type(v) is not int)
    with pytest.raises(ValueError) as err:
        make_presheaf(kcat([[0, 3], [4, 0]]), values)
    assert str(err.value) == "outside carrier: %s" % format_scalar(bad)


def test_two_presheaves_are_lower_sets():
    # 2-element chain a <= b
    L = get_lattice("two")
    chain = VCategory(L, ("a", "b"),
                      ((TRUE, TRUE), (FALSE, TRUE)))
    assert validate_category(chain) == []
    kept = []
    for va, vb in product([FALSE, TRUE], repeat=2):
        p = make_presheaf(chain, {"a": va, "b": vb})
        if is_presheaf(p):
            kept.append((va, vb))
    # lower sets of the chain: {}, {a}, {a,b}
    assert kept == [(FALSE, FALSE), (TRUE, FALSE), (TRUE, TRUE)]


def test_yoneda_values():
    C = kcat([[0, 3], [4, 0]])
    y_b = yoneda(C, "b")
    assert y_b("a") == fin(3) and y_b("b") == fin(0)
    assert is_presheaf(y_b)
    cy_a = co_yoneda(C, "a")
    assert cy_a("b") == fin(3)
    assert is_presheaf(cy_a)  # copresheaf = presheaf on the opposite


def test_verify_yoneda_small():
    assert verify_yoneda(kcat([[0, 3], [4, 0]]))
    assert verify_yoneda(kcat([[NINF]]))
    assert verify_yoneda(kcat([[0]]))


def test_verify_yoneda_random():
    rng = random.Random(11)
    for _ in range(100):
        C = random_valid_kcat(rng, 4)
        assert verify_yoneda(C)


def reference_verify_yoneda(C):
    """`verify_yoneda` as the loop the residuation kernel replaced: each
    representable of C and of its opposite built as a Presheaf, and the
    distance of every pair taken on its own."""
    for X in (C, opposite(C)):
        L, ys = X.lattice, [yoneda(X, b) for b in X.objects]
        for p, row in zip(ys, X.hom):
            for q, h in zip(ys, row):
                if L.inf([L.hom(x, y) for x, y in zip(p.values, q.values)]) != h:
                    return False
    return True


LATTICE_KINDS = [("two", "int"), ("kbar", "int"), ("kbar", "real"), ("kbar_plus", "int"),
                 ("kbar_plus", "real"), ("kbar_plus_cart", "int"), ("kbar_plus_cart", "real")]


def _pool(L):
    """Grid values of L; for the real kind also halves and int payloads, so
    equal values of different types (0 and Decimal 0) meet."""
    if L.scalar_kind == "int":
        return L.carrier_grid(2)
    extra = [Decimal("-1.5"), Decimal("0.5"), Decimal("2.5"), -1, 0, 1]
    return L.carrier_grid(2) + [x for x in extra if L.contains(x)]


def _closed(L, rows):
    """The least category matrix above rows: kbar through `closure`, the
    other lattices by one Floyd-Warshall pass of sup and tensor (they have
    no cycle that keeps improving)."""
    n = len(rows)
    if L.name == "kbar":
        return closure(make_lcs(range(n), rows, L.scalar_kind)).hom
    d = [list(row) for row in rows]
    for i in range(n):
        d[i][i] = L.sup([d[i][i], L.unit])
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = L.sup([d[i][j], L.tensor(d[i][k], d[k][j])])
    return d


def _wide_pool(L):
    """_pool plus values off its grid: far ints and, for the real kind,
    Decimals with exponents from -21 to 30."""
    extra = [-17, 9, 1000, Decimal("1E+30"), Decimal("-2.5E-20"), Decimal("3.000"),
             Decimal("7E-3"), Decimal("-4.1E+12"), Decimal("0.125")]
    return _pool(L) + [x for x in extra if L.contains(x)]


def random_matrices(name, kind, per_size, seed=0, sizes=range(7), pool=_pool):
    """For each n in sizes, per_size raw, closed and closed-then-perturbed
    matrices over the lattice, drawn from pool(L), as categories (valid or not)."""
    rng, L = random.Random("%s/%s/%d" % (name, kind, seed)), get_lattice(name, kind)
    pool = pool(L)
    for n in sizes:
        for _ in range(per_size):
            raw = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            closed = _closed(L, raw)
            perturbed = [list(row) for row in closed]
            if n:
                perturbed[rng.randrange(n)][rng.randrange(n)] = rng.choice(pool)
            for rows in (raw, closed, perturbed):
                yield VCategory(L, range(n), rows)


@pytest.mark.parametrize("name,kind", LATTICE_KINDS)
def test_verify_yoneda_matches_reference(name, kind):
    outcomes = []
    for C in random_matrices(name, kind, 40):
        outcomes.append(verify_yoneda(C))
        assert outcomes[-1] == reference_verify_yoneda(C), C.hom
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("name,kind", LATTICE_KINDS)
def test_enriched_yoneda_lemma(name, kind):
    # a matrix is a category iff its residuals are its transpose
    L, valid = get_lattice(name, kind), 0
    for C in random_matrices(name, kind, 60, seed=1):
        is_category = validate_category(C) == []
        valid += is_category
        assert is_category == (residuals(L, C.hom) == tuple(zip(*C.hom))), C.hom
    assert 0 < valid < 7 * 60 * 3


def reference_validate_category(C):
    """`validate_category` as the triple loop the residuation kernel replaced:
    the identity law at every a, then the composition law at every (a, b, c)."""
    L = C.lattice
    bad = []
    for a in C.objects:
        if not L.leq(L.unit, C.hom_at(a, a)):
            bad.append("identity law fails at %s: unit %s is not below hom %s"
                       % (a, format_scalar(L.unit), format_scalar(C.hom_at(a, a))))
    for a in C.objects:
        for b in C.objects:
            for c in C.objects:
                lhs = L._tensor(C.hom_at(a, b), C.hom_at(b, c))
                rhs = C.hom_at(a, c)
                if not L.leq(lhs, rhs):
                    bad.append(
                        "composition law fails at (%s, %s, %s): %s is not below %s"
                        % (a, b, c, format_scalar(lhs), format_scalar(rhs)))
    return bad


@pytest.mark.parametrize("name,kind", LATTICE_KINDS)
def test_validate_category_matches_reference(name, kind):
    reports = []
    for C in random_matrices(name, kind, 12, seed=2, sizes=range(9), pool=_wide_pool):
        reports.append(validate_category(C))
        assert reports[-1] == reference_validate_category(C), C.hom
    # valid matrices, and reports whose composition failures span several (a, b) pairs
    pairs = [{tuple(m.split(", ")[:2]) for m in r if m.startswith("composition")}
             for r in reports]
    assert [] in reports and max(map(len, pairs)) > 1


@pytest.mark.parametrize("kind", ["int", "real"])
def test_validate_category_matches_reference_at_n32(kind):
    # closed: a hidden potential plus nonnegative slack, so no negative cycle
    # collapses it; broken: a few entries of a closed matrix overwritten
    rng, L = random.Random("n32/" + kind), get_lattice("kbar", kind)
    finite = [x for x in _wide_pool(L) if x not in (NEG_INF, POS_INF)]
    slack = [x for x in finite if x >= 0]
    for _ in range(2):
        pot = [rng.choice(finite) for _ in range(32)]
        closed = _closed(L, [[POS_INF if rng.random() < 0.25
                              else ext_add(ext_sub(q, p), rng.choice(slack)) for q in pot]
                             for p in pot])
        broken = [list(row) for row in closed]
        for x in [NEG_INF] + rng.sample(finite, 3):
            broken[rng.randrange(32)][rng.randrange(32)] = x
        for rows, valid in ((closed, True), (broken, False)):
            C = VCategory(L, ["o%d" % i for i in range(32)], rows)
            bad = validate_category(C)
            assert bad == reference_validate_category(C)
            assert (bad == []) == valid


def test_residuals_examples():
    L = get_lattice("kbar")
    # distances between the rows (0, 3) and (4, 0): hom(x, y) = y - x, inf = usual max
    assert residuals(L, ((0, 3), (4, 0))) == ((0, 4), (3, 0))
    assert residuals(L, ((), ())) == ((NEG_INF, NEG_INF), (NEG_INF, NEG_INF))
    assert residuals(L, ()) == ()
    C = VCategory(L, "ab", ((0, 3), (4, 0)))
    assert presheaf_dist(yoneda(C, "a"), yoneda(C, "b")) == residuals(L, tuple(zip(*C.hom)))[0][1]


def test_mismatched_functors_rejected():
    C = kcat([[0, 3], [4, 0]])
    D = kcat([[0]])
    with pytest.raises(ValueError):
        functor_hom(identity_functor(C), identity_functor(D))
    with pytest.raises(ValueError):
        make_functor(C, D, {"a": "z", "b": "a"})
    with pytest.raises(ValueError):
        make_functor(C, D, {"a": "a"})  # no image for b
    with pytest.raises(ValueError, match="'z' is not a domain object"):
        make_functor(C, D, {"a": "a", "b": "a", "z": "a"})
    F = make_functor(C, D, {"a": "a", "b": "a"})
    with pytest.raises(ValueError, match="^codomain of the inner functor must be the outer domain$"):
        compose_functors(F, F)
    # parallel means both ends: one shared end is not enough
    E = kcat([[0]], labels=("e",))
    same_domain = make_functor(C, E, {"a": "e", "b": "e"})
    same_codomain = make_functor(kcat([[0]], labels=("c",)), D, {"c": "a"})
    for G in (same_domain, same_codomain):
        with pytest.raises(ValueError, match="^functors are not parallel$"):
            functor_hom(F, G)


def test_maps_between_lattices_are_refused():
    A = kcat([[0, 1], [2, 0]])
    others = [VCategory(get_lattice("two"), ("t",), [[TRUE]]),
              VCategory(get_lattice("kbar_plus"), ("p",), [[0]])]
    for B in others:
        for X, Y in ((A, B), (B, A)):
            msg = "^a map needs one lattice on both sides, not %s and %s$" % (
                X.lattice.name, Y.lattice.name)
            for build in (lambda: enumerate_functors(X, Y),
                          lambda: VFunctor(X, Y, (0,) * len(X.objects)),
                          lambda: make_functor(X, Y, dict.fromkeys(X.objects, Y.objects[0]))):
                with pytest.raises(ValueError, match=msg):
                    build()
    # kbar's int and real kinds still mix
    R = VCategory(get_lattice("kbar", "real"), ("r",), [[Decimal(0)]])
    assert [F.positions for F in enumerate_functors(A, R)] == [(0, 0)]
    assert [F.positions for F in enumerate_functors(R, A)] == [(0,), (1,)]


def test_vfunctor_rejects_bad_positions():
    C = kcat([[0, 3], [4, 0]])
    for bad in ((0,), (0, 1, 0), (0, 2), (0, 99), (0, -1), (0, True), (0, 1.0), (0, "1")):
        for build in (lambda: VFunctor(C, C, bad),
                      lambda: VFunctor(domain=C, codomain=C, positions=bad)):
            with pytest.raises(ValueError,
                               match="^a functor needs one codomain index per domain object$"):
                build()


def test_search_built_functors_are_frozen():
    A = kcat([[0, 1, 2], [2, 0, 1], [3, 3, 0]])
    B = kcat([[0, 2], [1, 0]], labels=("u", "v"))
    for F in enumerate_functors(A, B):
        before = (F.domain, F.codomain, F.positions)
        for name in inspect.signature(VFunctor).parameters:
            with pytest.raises(AttributeError):
                setattr(F, name, getattr(F, name))
            with pytest.raises(AttributeError):
                delattr(F, name)
        assert (F.domain, F.codomain, F.positions) == before


def test_a_functor_equals_only_a_functor():
    # stored as a tuple, a VFunctor must still not equal the plain tuple of
    # its fields, nor the one it is stored as, from either side, nor be
    # ordered like one
    A = kcat([[0, 1, 2], [2, 0, 1], [3, 3, 0]])
    B = kcat([[0, 2], [1, 0]], labels=("u", "v"))
    F = enumerate_functors(A, B)[2]
    twin = VFunctor(A, B, list(F.positions))
    fields = (F.domain, F.codomain, F.positions)
    assert type(F) is type(twin) is VFunctor and repr(F) == repr(twin)
    assert F == twin and not F != twin
    assert hash(F) == hash(twin) == hash(fields)
    for G in (F, twin):
        for plain in (fields, tuple(G)):
            assert not G == plain and G != plain
            assert not plain == G and plain != G
    for x, y in ((F, twin), (twin, F), (F, fields), (fields, F), (F, tuple(F)), (tuple(F), F)):
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                order(x, y)


def test_vfunctor_init_takes_every_field():
    # VFunctor.__new__ checks and stores each field itself: a field added later must be a parameter
    params = list(inspect.signature(VFunctor.__new__).parameters)
    assert params == ["cls", *VFunctor._fields]


def _random_enriched(rng, L):
    """L over itself on a few distinct grid values, in random order."""
    grid = L.carrier_grid(2)
    return self_enrichment(L, rng.sample(grid, rng.randint(1, min(3, len(grid)))))


@pytest.mark.parametrize("name", ["two", "kbar", "kbar_plus", "kbar_plus_cart"])
def test_position_operations_match_label_definitions(name):
    rng = random.Random(len(name))
    L = get_lattice(name)
    seen = 0
    for _ in range(12):
        A, B = _random_enriched(rng, L), _random_enriched(rng, L)
        fs, endos = enumerate_functors(A, B), enumerate_functors(B, B)
        for F in fs:
            seen += 1
            assert make_functor(A, B, dict(F.object_map)) == F
            assert is_fully_faithful(F) == all(
                A.hom_at(a, a2) == B.hom_at(F(a), F(a2)) for a in A.objects for a2 in A.objects)
            for G in fs:
                assert functor_hom(F, G) == L.inf([B.hom_at(F(a), G(a)) for a in A.objects])
            for H in endos:
                HF = compose_functors(H, F)
                assert all(HF(a) == H(F(a)) for a in A.objects)
    assert seen >= 12
