from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import isfinite

import pytest

from lcdual.lattices import (
    get_lattice, check_adjointness, law_violations,
    KbarLattice, KbarPlusLattice, KbarPlusCartLattice, TwoLattice,
)
from lcdual.scalars import NEG_INF, POS_INF, TRUE, FALSE, fin, ext_add, format_scalar
from lcdual.categories import make_category, validate_category


ALL_NAMES = ["two", "kbar", "kbar_plus", "kbar_plus_cart"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_law_suite_clean(name):
    L = get_lattice(name)
    assert law_violations(L, bound=3) == []


def _kbar_tensor(x, y, zero):
    if POS_INF in (x, y):
        return POS_INF
    return NEG_INF if NEG_INF in (x, y) else x + y


def _kbar_hom(x, y, zero):
    if x == POS_INF or y == NEG_INF:
        return NEG_INF
    return POS_INF if x == NEG_INF or y == POS_INF else y - x


def _plus_tensor(x, y, zero):
    return POS_INF if POS_INF in (x, y) else x + y


def _plus_hom(x, y, zero):
    if x == POS_INF:
        return zero
    return POS_INF if y == POS_INF else y - x if y > x else zero


def _cart_tensor(x, y, zero):
    return POS_INF if POS_INF in (x, y) else y if y > x else x


def _cart_hom(x, y, zero):
    return zero if x >= y else y


_AND = {(TRUE, TRUE): TRUE, (TRUE, FALSE): FALSE, (FALSE, TRUE): FALSE, (FALSE, FALSE): FALSE}
_IMPLIES = {(TRUE, TRUE): TRUE, (TRUE, FALSE): FALSE, (FALSE, TRUE): TRUE, (FALSE, FALSE): TRUE}

# the README table, written out with its infinity cases: (tensor, hom)
TABLES = {
    "two": (lambda x, y, zero: _AND[x, y], lambda x, y, zero: _IMPLIES[x, y]),
    "kbar": (_kbar_tensor, _kbar_hom),
    "kbar_plus": (_plus_tensor, _plus_hom),
    "kbar_plus_cart": (_cart_tensor, _cart_hom),
}


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_operation_tables(name, kind):
    L = get_lattice(name, kind)
    zero = Decimal(0) if kind == "real" else 0
    grid = L.carrier_grid(2)
    if kind == "real" and name != "two":  # the real carrier also holds int payloads
        grid += [int(x) for x in grid if isfinite(x)]
    tensor, hom = TABLES[name]
    for x in grid:
        for y in grid:
            for op, want in ((L.tensor, tensor(x, y, zero)), (L.hom, hom(x, y, zero))):
                got = op(x, y)
                # the payload type too: a real lattice's zero is Decimal(0) for any operands
                assert got == want and type(got) is type(want), (op.__name__, x, y, got)


class _KbarInfMinusInf(KbarLattice):
    def hom(self, x, y):
        return POS_INF if x == y == POS_INF else super().hom(x, y)


class _CartPlusAtOne(KbarPlusCartLattice):
    def tensor(self, x, y):
        return ext_add(x, y) if x == 1 else super().tensor(x, y)


class _TwoHomAlwaysTrue(TwoLattice):
    def hom(self, x, y):
        return TRUE


@pytest.mark.parametrize("mutant, laws", [
    (_KbarInfMinusInf, ["adjointness fails"]),
    (_CartPlusAtOne, ["adjointness fails", "associativity fails", "commutativity fails"]),
    (_TwoHomAlwaysTrue, ["adjointness fails"]),
], ids=["kbar-hom-inf-inf", "cart-plus-at-one", "two-hom-true"])
def test_law_suite_catches_a_broken_law(mutant, laws):
    bad = law_violations(mutant(), bound=3)
    assert bad
    for law in laws:
        assert any(line.startswith(law) for line in bad), law


def reference_law_violations(L, bound=3, max_subset=3):
    """`law_violations` as plain loops that call the lattice for every operation."""
    G = L.carrier_grid(bound)
    bad = []

    def note(msg, *vals):
        bad.append(msg % tuple(format_scalar(v) for v in vals))

    for x in G:
        if L.tensor(L.unit, x) != x or L.tensor(x, L.unit) != x:
            note("unit law fails at %s", x)
    for x in G:
        for y in G:
            if L.tensor(x, y) != L.tensor(y, x):
                note("commutativity fails at (%s, %s)", x, y)
    for x in G:
        for y in G:
            for z in G:
                if L.tensor(L.tensor(x, y), z) != L.tensor(x, L.tensor(y, z)):
                    note("associativity fails at (%s, %s, %s)", x, y, z)
                if not check_adjointness(L, x, y, z):
                    note("adjointness fails at (%s, %s, %s)", x, y, z)
                if not L.leq(L.hom(y, z), L.hom(L.hom(x, y), L.hom(x, z))):
                    note("composition law fails at (%s, %s, %s)", x, y, z)
    for x in G:
        for y in G:
            if not L.leq(x, y):
                continue
            for z in G:
                if not L.leq(L.tensor(x, z), L.tensor(y, z)):
                    note("tensor not monotone at (%s <= %s, %s)", x, y, z)
                if not L.leq(L.hom(z, x), L.hom(z, y)):
                    note("hom not monotone in target at (%s <= %s, %s)", x, y, z)
                if not L.leq(L.hom(y, z), L.hom(x, z)):
                    note("hom not antitone in source at (%s <= %s, %s)", x, y, z)

    subsets = [()]
    for k in range(1, max_subset + 1):
        subsets.extend(combinations(G, k))
    for y in G:
        for S in subsets:
            lhs = L.tensor(L.sup(S), y)
            rhs = L.sup([L.tensor(s, y) for s in S])
            if lhs != rhs:
                note("tensor(-, %s) fails to preserve sups on a %d-subset" % ("%s", len(S)), y)
            lhs = L.hom(y, L.inf(S))
            rhs = L.inf([L.hom(y, s) for s in S])
            if lhs != rhs:
                note("hom(%s, -) fails to preserve infs on a %d-subset" % ("%s", len(S)), y)
            lhs = L.hom(L.sup(S), y)
            rhs = L.inf([L.hom(s, y) for s in S])
            if lhs != rhs:
                note("hom(-, %s) fails to turn sups into infs on a %d-subset" % ("%s", len(S)), y)

    for y in G:
        for z in G:
            candidates = [x for x in G if L.leq(L.tensor(x, y), z)]
            recovered = L.sup(candidates)
            if recovered in G and L.hom(y, z) in G and recovered != L.hom(y, z):
                # only meaningful when the true sup is attained inside the grid
                if any(x == L.hom(y, z) for x in G):
                    note("hom not recovered from tensor at (%s, %s)", y, z)
    return bad


SUITE_LATTICES = [
    TwoLattice, KbarLattice, KbarPlusLattice, KbarPlusCartLattice,
    _KbarInfMinusInf, _CartPlusAtOne, _TwoHomAlwaysTrue,
]


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("lattice", SUITE_LATTICES, ids=lambda cls: cls.__name__)
def test_law_suite_matches_reference(lattice, kind, bound):
    L = lattice(kind)
    assert law_violations(L, bound) == reference_law_violations(L, bound)


@pytest.mark.parametrize("max_subset", [0, 1, 2, 4])
@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("lattice", SUITE_LATTICES, ids=lambda cls: cls.__name__)
def test_law_suite_matches_reference_at_every_subset_size(lattice, kind, max_subset):
    L = lattice(kind)
    for bound in (0, 1, 2):
        assert (law_violations(L, bound, max_subset)
                == reference_law_violations(L, bound, max_subset)), bound


class _KbarTensorLeavesCarrier(KbarLattice):
    def tensor(self, x, y):
        return 0.5


@pytest.mark.parametrize("kind", ["int", "real"])
def test_law_suite_checks_every_term_against_the_carrier(kind):
    # only the carrier check in sup sees the stray 0.5: every law compares
    # values, and 0.5 compares with them all
    L = _KbarTensorLeavesCarrier(kind)
    with pytest.raises(ValueError) as want:
        reference_law_violations(L, 2)
    with pytest.raises(ValueError) as got:
        law_violations(L, 2)
    assert str(got.value) == str(want.value) == "outside carrier: 0.5"


def test_adjointness_examples():
    kbar = get_lattice("kbar")
    assert check_adjointness(kbar, fin(2), fin(3), fin(5))
    assert check_adjointness(kbar, POS_INF, NEG_INF, fin(5))
    two = get_lattice("two")
    assert check_adjointness(two, TRUE, FALSE, FALSE)


def test_order_is_reversed_for_numeric():
    kbar = get_lattice("kbar")
    assert kbar.leq(fin(5), fin(3))
    assert not kbar.leq(fin(3), fin(5))
    assert kbar.leq(POS_INF, NEG_INF)


def test_two_order_is_entailment():
    two = get_lattice("two")
    assert two.leq(FALSE, TRUE)
    assert not two.leq(TRUE, FALSE)
    assert two.leq(TRUE, TRUE)


def test_empty_sup_inf_are_extremes():
    kbar = get_lattice("kbar")
    assert kbar.sup([]) == POS_INF
    assert kbar.inf([]) == NEG_INF
    kplus = get_lattice("kbar_plus")
    assert kplus.sup([]) == POS_INF
    assert kplus.inf([]) == fin(0)
    two = get_lattice("two")
    assert two.sup([]) == FALSE
    assert two.inf([]) == TRUE


NUMERIC_NAMES = ["kbar", "kbar_plus", "kbar_plus_cart"]


def _outside(name, kind):
    """Terms outside the carrier of lattice `name` of the given kind."""
    terms = [True, 0.5, float("nan"), Decimal("Infinity")]
    if kind == "int":
        terms.append(Decimal(2))
    if name != "kbar":
        terms += [-1, NEG_INF] + ([Decimal(-1)] if kind == "real" else [])
    return terms


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("name", NUMERIC_NAMES)
def test_sup_inf_refuse_terms_outside_the_carrier(name, kind):
    L = get_lattice(name, kind)
    ok = L.carrier_grid(1)
    for bad in _outside(name, kind):
        assert not L.contains(bad), bad
        for op in (L.sup, L.inf):
            # alone, after carrier terms, and from an iterator as the law suite passes them
            for xs in ([bad], ok + [bad], iter([bad] + ok)):
                with pytest.raises(ValueError) as err:
                    op(xs)
                assert str(err.value) == "outside carrier: %s" % format_scalar(bad)


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("name", NUMERIC_NAMES)
def test_sup_inf_keep_values_and_payload_types(name, kind):
    L = get_lattice(name, kind)
    top = NEG_INF if name == "kbar" else L.unit
    for got, want in ((L.sup([]), POS_INF), (L.inf([]), top)):
        assert got == want and type(got) is type(want)
    if kind == "real":  # a real carrier holds int and Decimal payloads; the first extreme wins
        for xs in ([Decimal(1), 1, POS_INF], [1, Decimal(1), POS_INF], [POS_INF, 2, Decimal(2)]):
            for got, want in ((L.sup(xs), min(xs)), (L.inf(xs), max(xs))):
                assert got == want and type(got) is type(want), xs


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("name", ["two", "kbar_plus", "kbar_plus_cart"])
def test_tensor_hom_refuse_operands_outside_the_carrier(name, kind):
    # kbar is left out: its tensor and hom check nothing
    L = get_lattice(name, kind)
    grid = L.carrier_grid(3)
    for x in grid:
        for y in grid:
            assert L.contains(L.tensor(x, y)) and L.contains(L.hom(x, y)), (x, y)
    outside = ([True, False, 0, 1, POS_INF, NEG_INF, Decimal(1)] if name == "two"
               else _outside(name, kind))
    for bad in outside:
        assert not L.contains(bad), bad
        for op in (L.tensor, L.hom):
            for x, y in [(bad, g) for g in grid] + [(g, bad) for g in grid]:
                with pytest.raises(ValueError) as err:
                    op(x, y)
                assert str(err.value) == "outside carrier: %s" % format_scalar(bad)


def test_carrier_membership():
    kplus = get_lattice("kbar_plus")
    assert not kplus.contains(NEG_INF)
    assert not kplus.contains(fin(-1))
    assert kplus.contains(POS_INF)
    with pytest.raises(ValueError):
        kplus.sup([fin(-1)])


def test_sup_inf_take_exact_terms_past_the_float_range():
    kbar = get_lattice("kbar", "real")
    huge = ext_add(Decimal("1e308"), Decimal("1e308"))  # the exact sum, in the carrier
    assert huge == Decimal("2E+308") and kbar.contains(huge)
    one = Decimal("1.0")
    assert kbar.sup([huge, one]) == one and kbar.inf([huge, POS_INF]) == POS_INF
    assert kbar.inf([huge, one]) == huge
    for bad in (Fraction(1, 2), float("nan"), 0.5, Decimal("Infinity"), Decimal("NaN")):
        with pytest.raises(ValueError):
            kbar.sup([bad])


def test_real_kind_grid_is_decimal():
    kbar = get_lattice("kbar", "real")
    grid = kbar.carrier_grid(1)
    finite = [x for x in grid if isfinite(x)]
    assert all(type(x) is Decimal for x in finite)
    assert law_violations(kbar, bound=2) == []


@pytest.mark.parametrize("name", NUMERIC_NAMES)
def test_real_kind_zeros_are_decimal(name):
    L = get_lattice(name, "real")
    one = Decimal("1.0")
    values = [L.unit, L.inf([]), L.hom(POS_INF, POS_INF), L.hom(one, one)]
    assert all(type(x) is Decimal for x in values if isfinite(x))
    C = make_category(L, ("v",), [[one]])
    assert validate_category(C) == ["identity law fails at v: unit 0 is not below hom 1.0"]


def test_unknown_lattice_rejected():
    with pytest.raises(ValueError):
        get_lattice("three")
