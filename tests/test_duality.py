import copy
import inspect
import pickle
import random
from itertools import product
from math import isfinite

import pytest

from lcdual.scalars import NEG_INF, POS_INF, TRUE, fin
from lcdual.lattices import get_lattice
from lcdual.categories import (
    VFunctor, VCategory, make_functor, identity_functor, enumerate_functors, canonical_leq,
    is_presheaf, make_presheaf, opposite, validate_category, InvalidCategory,
)
from lcdual.lconvex import member, grid_members, canonical_points
from lcdual.duality import (
    make_homomorphism, pullback, cat_to_lcs, lcs_to_cat,
    roundtrip_cat, roundtrip_lcs, is_homomorphism,
    functor_to_hom, hom_to_functor, hom_canonical_leq,
    enumerate_homs,
)

from conftest import kcat, INF, NINF, random_valid_lcs, random_valid_kcat
from test_lconvex import lcs, pt


def test_cat_to_lcs_examples():
    band = cat_to_lcs(kcat([[0, 1], [1, 0]]))
    assert band.dbm == lcs([[0, 1], [1, 0]]).dbm
    assert band.index == ("a", "b")
    plane = cat_to_lcs(kcat([[0, INF], [INF, 0]]))
    assert len(grid_members(plane, 1)) == 25
    twopts = cat_to_lcs(kcat([[NINF, NINF], [NINF, NINF]]))
    assert grid_members(twopts, 2) == [(NEG_INF, NEG_INF), (POS_INF, POS_INF)]


def test_cat_to_lcs_rejects_invalid():
    with pytest.raises(ValueError):
        cat_to_lcs(kcat([[0, 1], [-2, 0]]))


def test_cat_to_lcs_needs_kbar():
    C = VCategory(get_lattice("two"), ("a",), [[TRUE]])
    assert validate_category(C) == []
    with pytest.raises(ValueError,
                       match=r"^an L-convex set needs the kbar lattice, not TwoLattice\(int\)$"):
        cat_to_lcs(C)


def test_duality_raises_the_violations_with_the_category_message():
    A = kcat([[1, 1], [-2, 0]])
    for convert, X in ((cat_to_lcs, A), (lcs_to_cat, lcs([[1, 1], [-2, 0]]))):
        with pytest.raises(InvalidCategory) as exc:
            convert(X)
        assert exc.value.violations == validate_category(X)
        assert str(exc.value) == "not a valid category: " + "; ".join(validate_category(X))


def test_lcs_to_cat_labels_and_matrix():
    D = lcs([[0, 1], [1, 0]])
    C = lcs_to_cat(D)
    assert C.objects == ("pi_v", "pi_w")
    assert C.hom == D.dbm
    # the distance formula: max over members of p(w) - p(v)
    best = max((p[1] - p[0]
                for p in grid_members(D, 4)
                if isfinite(p[0]) and isfinite(p[1])), default=None)
    assert best == 1


def test_lcs_to_cat_refuses_a_plain_category():
    # a kbar VCategory has no L-convex names; both directions refuse it
    A = kcat([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="^lcs_to_cat needs an L-convex set, not VCategory$"):
        lcs_to_cat(A)
    with pytest.raises(ValueError, match="^lcs_to_cat needs an L-convex set, not VCategory$"):
        hom_to_functor(identity_functor(A))


def test_roundtrips_small():
    for rows in ([[0]], [[NINF]], [[0, 3], [4, 0]], [[NINF, NINF], [INF, 0]]):
        A = kcat(rows, labels=tuple("vw"[:len(rows)]))
        assert roundtrip_cat(A)
        assert roundtrip_lcs(cat_to_lcs(A))


def test_roundtrips_random():
    rng = random.Random(23)
    for _ in range(50):
        D = random_valid_lcs(rng, rng.randint(1, 4))
        assert roundtrip_lcs(D)
        assert roundtrip_cat(lcs_to_cat(D))


# results of a round trip with the right labels and another matrix, and
# with the right matrix and other labels: each must fail the round trip
ROUNDTRIP_ROWS, OTHER_ROWS = [[0, 1], [2, 0]], [[0, 1], [3, 0]]
PI_LABELS, PLAIN_LABELS = ("pi_v", "pi_w"), ("v", "w")
HALF_RIGHT = ((PI_LABELS, OTHER_ROWS), (PLAIN_LABELS, ROUNDTRIP_ROWS))


@pytest.mark.parametrize("labels, rows", HALF_RIGHT)
def test_roundtrip_cat_checks_labels_and_matrix(monkeypatch, labels, rows):
    B = kcat(rows, labels=labels)
    monkeypatch.setattr("lcdual.duality.lcs_to_cat", lambda D: B)
    assert not roundtrip_cat(kcat(ROUNDTRIP_ROWS, labels=PLAIN_LABELS))


@pytest.mark.parametrize("labels, rows", HALF_RIGHT)
def test_roundtrip_lcs_checks_index_and_matrix(monkeypatch, labels, rows):
    E = cat_to_lcs(kcat(rows, labels=labels))
    monkeypatch.setattr("lcdual.duality.cat_to_lcs", lambda C: E)
    assert not roundtrip_lcs(lcs(ROUNDTRIP_ROWS))


def test_is_homomorphism_band_embedding():
    thin = lcs([[0, 1], [1, 0]])
    thick = lcs([[0, 2], [2, 0]])
    ident = {"v": "v", "w": "w"}
    assert is_homomorphism(make_homomorphism(thin, thick, ident))
    assert not is_homomorphism(make_homomorphism(thick, thin, ident))


def test_homomorphism_into_whole_plane():
    rng = random.Random(29)
    plane = lcs([[0, INF], [INF, 0]])
    for _ in range(20):
        D = random_valid_lcs(rng, 2)
        for choice in product(D.index, repeat=2):
            phi = make_homomorphism(D, plane, dict(zip(plane.index, choice)))
            assert is_homomorphism(phi)


def test_homomorphism_matches_pullback_on_members():
    rng = random.Random(31)
    for _ in range(40):
        D = random_valid_lcs(rng, 2)
        E = random_valid_lcs(rng, 2, labels=("p", "q"))
        f = {w: rng.choice(D.index) for w in E.index}
        phi = make_homomorphism(D, E, f)
        matrix_ok = is_homomorphism(phi)
        bound = 3 + max((abs(int(x)) for row in D.dbm for x in row if isfinite(x)),
                        default=0)
        pullback_ok = all(member(E, pullback(phi, p)) for p in grid_members(D, bound))
        # the canonical rows witness any violation
        pullback_ok = pullback_ok and all(
            member(E, pullback(phi, p)) for p in canonical_points(D))
        assert matrix_ok == pullback_ok


def test_functor_hom_correspondence():
    A = kcat([[0, 1], [1, 0]])
    B = kcat([[0, 2], [2, 0]], labels=("c", "d"))
    fs = enumerate_functors(A, B)
    hs = enumerate_homs(cat_to_lcs(B), cat_to_lcs(A))
    assert len(fs) == len(hs)
    for F in fs:
        phi = functor_to_hom(F)
        back = hom_to_functor(phi)
        assert tuple(back("pi_" + a) for a in A.objects) == \
            tuple("pi_" + F(a) for a in A.objects)


def test_functor_to_hom_refuses_a_map_that_is_not_increasing():
    A = kcat([[0, 1], [2, 0]])
    swap = VFunctor(A, A, (1, 0))  # d(a, b) = 1 is below d(b, a) = 2 in kbar
    with pytest.raises(ValueError, match="^functor does not satisfy the increasing condition$"):
        functor_to_hom(swap)


def test_identity_functor_to_hom():
    A = kcat([[0, 3], [4, 0]])
    phi = functor_to_hom(identity_functor(A))
    assert all(phi(w) == w for w in phi.codomain.index)


def test_hom_canonical_leq():
    D = lcs([[0, NINF], [INF, 0]])
    E = lcs([[0]], labels=("u",))
    const_v = make_homomorphism(D, E, {"u": "v"})
    const_w = make_homomorphism(D, E, {"u": "w"})
    assert hom_canonical_leq(const_v, const_v)
    assert hom_canonical_leq(const_v, const_w)      # 0 >= d(v,w) = -inf
    assert not hom_canonical_leq(const_w, const_v)  # 0 >= d(w,v) = inf fails


def hom_leq_pointwise(phi, psi, bound=3):
    """Oracle form of the ordering: compare pullbacks on every grid member."""
    for p in grid_members(phi.codomain, bound):
        if not all(x >= y for x, y in zip(pullback(phi, p), pullback(psi, p))):
            return False
    return True


def test_hom_leq_matches_pointwise_oracle():
    rng = random.Random(37)
    for _ in range(30):
        D = random_valid_lcs(rng, 2)
        E = random_valid_lcs(rng, 2, labels=("p", "q"))
        homs = enumerate_homs(D, E)
        for phi in homs:
            for psi in homs:
                assert hom_canonical_leq(phi, psi) == hom_leq_pointwise(phi, psi, 4)


def test_ordering_duality_small():
    A = kcat([[0, 0], [1, 0]])
    B = kcat([[0, NINF], [INF, 0]], labels=("c", "d"))
    fs = enumerate_functors(A, B)
    for F in fs:
        for G in fs:
            assert canonical_leq(F, G) == hom_canonical_leq(functor_to_hom(F),
                                                            functor_to_hom(G))


def test_presheaf_members_correspondence():
    # membership in the dual of the opposite category = being a presheaf; member
    # is defined as this test, so it restates the definition, and the oracle
    # checks of member are test_grid_members_matches_the_member_filter and
    # test_real_member_matches_the_int_grid_oracle in test_lconvex.py
    rng = random.Random(41)
    for _ in range(20):
        A = random_valid_kcat(rng, 2)
        D = cat_to_lcs(opposite(A))
        for p in grid_members(D, 4):
            ph = make_presheaf(A, dict(zip(A.objects, p)))
            assert member(D, p) == is_presheaf(ph)
        for values in product([NEG_INF, fin(-1), fin(0), fin(2), POS_INF], repeat=2):
            ph = make_presheaf(A, dict(zip(A.objects, values)))
            assert member(D, values) == is_presheaf(ph)


def test_distinct_index_maps_are_distinct_homs():
    # two constant maps with the same underlying pullback on every member
    # still count as different homomorphisms
    D = lcs([[NINF, NINF], [NINF, NINF]])
    E = lcs([[NINF]], labels=("u",))
    const_v = make_homomorphism(D, E, {"u": "v"})
    const_w = make_homomorphism(D, E, {"u": "w"})
    assert const_v != const_w
    for p in grid_members(D, 2):
        assert pullback(const_v, p) == pullback(const_w, p)


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_search_results_survive_pickle_and_copy(how):
    dup = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
           "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
    A = kcat([[0, 1, 2], [2, 0, 1], [3, 3, 0]])
    B = kcat([[0, 2], [1, 0]], labels=("u", "v"))
    F = enumerate_functors(A, B)[2]
    phi = enumerate_homs(cat_to_lcs(B), cat_to_lcs(A))[2]
    for x in (F, phi):
        y = dup(x)
        assert y == x and hash(y) == hash(x)
    G = dup(F)
    assert G.positions == F.positions and G.object_map == F.object_map
    assert G("c") == F("c")
    psi = dup(phi)
    assert psi.domain == phi.domain and psi.codomain == phi.codomain
    assert psi.object_map == phi.object_map
    assert psi("c") == phi("c") and pullback(psi, (0, 1)) == pullback(phi, (0, 1))


def test_search_built_homs_are_frozen():
    A = kcat([[0, 1, 2], [2, 0, 1], [3, 3, 0]])
    B = kcat([[0, 2], [1, 0]], labels=("u", "v"))
    homs = enumerate_homs(cat_to_lcs(B), cat_to_lcs(A))
    assert homs
    for phi in homs:
        before = (phi.domain, phi.codomain, phi.positions)
        for name in inspect.signature(VFunctor).parameters:
            with pytest.raises(AttributeError):
                setattr(phi, name, getattr(phi, name))
            with pytest.raises(AttributeError):
                delattr(phi, name)
        assert (phi.domain, phi.codomain, phi.positions) == before
