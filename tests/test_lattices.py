import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb, isfinite

import pytest

from lcdual.lattices import (
    get_lattice, law_violations,
    EnrichingLattice, KbarLattice, KbarPlusLattice, KbarPlusCartLattice, TwoLattice,
)
from lcdual.scalars import NEG_INF, POS_INF, TRUE, FALSE, fin, ext_add, format_scalar
from lcdual.categories import VCategory, validate_category


ALL_NAMES = ["two", "kbar", "kbar_plus", "kbar_plus_cart"]
NUMERIC_NAMES = ALL_NAMES[1:]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_law_suite_clean(name):
    L = get_lattice(name)
    assert law_violations(L, bound=3) == []


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("name", ["kbar", "kbar_plus", "kbar_plus_cart"])
def test_numeric_leq_is_the_reverse_usual_order(name, kind):
    L = get_lattice(name, kind)
    mixes = [0, 2, -2, Decimal(0), Decimal("1.5"), Decimal(-3), POS_INF, NEG_INF]
    for values in (L.carrier_grid(3), mixes):
        for x in values:
            for y in values:
                assert L.leq(x, y) is (x >= y)
    assert L.leq(POS_INF, 7) and not L.leq(7, POS_INF) and L.leq(Decimal("1.5"), 1)


def test_lattices_equal_by_name_and_kind():
    assert get_lattice("kbar") == get_lattice("kbar", "int")
    assert get_lattice("kbar_plus") != get_lattice("kbar_plus_cart")  # only the name differs
    assert get_lattice("kbar") != get_lattice("kbar", "real")  # only the kind differs
    plus, cart = (VCategory(get_lattice(name), ("a",), [[0]])
                  for name in ("kbar_plus", "kbar_plus_cart"))
    assert plus.objects == cart.objects and plus.hom == cart.hom and plus != cart


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
            for op, raw, want in ((L.tensor, L._tensor, tensor(x, y, zero)),
                                  (L.hom, L._hom, hom(x, y, zero))):
                got = op(x, y)
                # the payload type too: a real lattice's zero is Decimal(0) for any operands
                assert got == want and type(got) is type(want), (op.__name__, x, y, got)
                # the unchecked kernel that validate_category, residuals and is_presheaf run
                kernel = raw(x, y)
                assert kernel == got and type(kernel) is type(got), (raw.__name__, x, y, kernel)


class _KbarInfMinusInf(KbarLattice):
    def hom(self, x, y):
        return POS_INF if x == y == POS_INF else super().hom(x, y)


class _CartPlusAtOne(KbarPlusCartLattice):
    def tensor(self, x, y):
        return ext_add(x, y) if x == 1 else super().tensor(x, y)


class _TwoHomAlwaysTrue(TwoLattice):
    def hom(self, x, y):
        return TRUE


class _TwoHomNegatesTarget(TwoLattice):
    def hom(self, x, y):
        return FALSE if y is TRUE else TRUE


class _TwoHomIsSource(TwoLattice):
    def hom(self, x, y):
        return x


class _PlusSupIsUsualMax(KbarPlusLattice):
    # the raw join behind both the public sup and the law suite's subset images
    _join = staticmethod(max)


class _TwoInfIsSup(TwoLattice):
    # the empty inf goes with the meet: sup's formula gives false on no terms
    _meet = staticmethod(TwoLattice._join)
    _top = FALSE


class _KbarEmptyInfIsZero(KbarLattice):
    # a wrong empty value with the right meet: only the 0-subsets see it
    _top = 0


@pytest.mark.parametrize("mutant, laws", [
    (_KbarInfMinusInf, ["adjointness fails"]),
    (_CartPlusAtOne, ["adjointness fails", "associativity fails", "commutativity fails"]),
    (_TwoHomAlwaysTrue, ["adjointness fails"]),
    (_TwoHomNegatesTarget, ["hom not monotone in target", "hom(false, -) fails to preserve infs"]),
    (_TwoHomIsSource, ["hom not antitone in source"]),
    (_PlusSupIsUsualMax, ["hom(-, inf) fails to turn sups into infs"]),
    (_TwoInfIsSup, ["hom(false, -) fails to preserve infs", "hom(-, false) fails to turn sups into infs"]),
    (_KbarEmptyInfIsZero, ["hom(-inf, -) fails to preserve infs on a 0-subset",
                           "hom(-, -inf) fails to turn sups into infs on a 0-subset"]),
], ids=["kbar-hom-inf-inf", "cart-plus-at-one", "two-hom-true", "two-hom-not-y", "two-hom-x",
        "plus-sup-max", "two-inf-sup", "kbar-empty-inf-zero"])
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
                if L.leq(L.tensor(x, y), z) != L.leq(x, L.hom(y, z)):
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
    _KbarInfMinusInf, _CartPlusAtOne, _TwoHomAlwaysTrue, _TwoHomNegatesTarget, _TwoHomIsSource,
    _PlusSupIsUsualMax, _TwoInfIsSup, _KbarEmptyInfIsZero,
]


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("lattice", SUITE_LATTICES, ids=lambda cls: cls.__name__)
def test_law_suite_matches_reference(lattice, kind, bound):
    L = lattice(kind)
    assert law_violations(L, bound) == reference_law_violations(L, bound)


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("lattice", SUITE_LATTICES, ids=lambda cls: cls.__name__)
def test_law_suite_matches_reference_on_a_larger_grid(lattice, kind):
    # kbar's 13-value grid at bound 5 reaches table, row and subset indices
    # bounds 0-3 do not
    L = lattice(kind)
    assert law_violations(L, 5) == reference_law_violations(L, 5)


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


class _KbarHomLeavesCarrier(KbarLattice):
    def hom(self, x, y):
        return 0.5


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("mutant", [_KbarTensorLeavesCarrier, _KbarHomLeavesCarrier],
                         ids=["tensor", "hom"])
def test_law_suite_checks_every_term_against_the_carrier(mutant, kind):
    # only the carrier check in sup/inf sees the stray 0.5: every law compares
    # values, and 0.5 compares with them all
    L = mutant(kind)
    with pytest.raises(ValueError) as want:
        reference_law_violations(L, 2)
    with pytest.raises(ValueError) as got:
        law_violations(L, 2)
    assert str(got.value) == str(want.value) == "outside carrier: 0.5"


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("mutant", [_KbarTensorLeavesCarrier, _KbarHomLeavesCarrier],
                         ids=["tensor", "hom"])
def test_law_suite_without_subsets_reports_like_the_reference(mutant, kind):
    # with no subsets there is no sup or inf for the carrier check to run on,
    # so the stray 0.5 is reported through the laws it breaks, as the
    # reference reports it, and not refused
    L = mutant(kind)
    for bound in (0, 1, 2):
        got = law_violations(L, bound, 0)
        assert got and got == reference_law_violations(L, bound, 0), bound


def _counting(lattice, kind):
    """An instance of lattice that counts the operand pairs sent to tensor and hom."""
    calls = {"tensor": Counter(), "hom": Counter()}

    class Counting(lattice):
        def tensor(self, x, y):
            calls["tensor"][x, y] += 1
            return super().tensor(x, y)

        def hom(self, x, y):
            calls["hom"][x, y] += 1
            return super().hom(x, y)

    return Counting(kind), calls


@pytest.mark.parametrize("max_subset", [0, 3])
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("lattice", SUITE_LATTICES, ids=lambda cls: cls.__name__)
def test_law_suite_sends_the_reference_pairs_once_each(lattice, kind, bound, max_subset):
    # the law suite asks each op for just the operand pairs the plain loops
    # ask for, each once: its rows never widen an op's domain
    L, got = _counting(lattice, kind)
    law_violations(L, bound, max_subset)
    R, want = _counting(lattice, kind)
    reference_law_violations(R, bound, max_subset)
    for op in ("tensor", "hom"):
        assert set(got[op]) == set(want[op]), op
        assert max(got[op].values()) == 1, op


@pytest.mark.parametrize("kind", ["int", "real"])
def test_sup_inf_mutants_keep_their_reports(kind):
    # the reports these mutants gave when each overrode the whole raw _sup or
    # _inf, empty case included; overriding the join or meet (and, for two,
    # the empty inf) must give them line for line
    assert law_violations(_TwoInfIsSup(kind), 3) == [
        "hom(false, -) fails to preserve infs on a 0-subset",
        "hom(-, false) fails to turn sups into infs on a 0-subset",
        "hom(-, false) fails to turn sups into infs on a 2-subset",
        "hom(-, true) fails to turn sups into infs on a 0-subset",
    ]
    fails = "hom(-, %s) fails to turn sups into infs on a %d-subset"
    counts = [("1", 2, 4), ("1", 3, 6), ("2", 2, 7), ("2", 3, 9), ("3", 2, 9), ("3", 3, 10),
              ("inf", 2, 4), ("inf", 3, 6)]
    want = [fails % (y, k) for y, k, times in counts for _ in range(times)]
    want += ["hom not recovered from tensor at (%s, %s)" % (y, z)
             for y in ("0", "1", "2", "3", "inf") for z in ("0", "1", "2", "3")]
    want.append("hom not recovered from tensor at (inf, inf)")
    assert law_violations(_PlusSupIsUsualMax(kind), 3) == want


def test_sup_inf_are_written_once():
    # each lattice gives only its join, meet and empty values; the rule that
    # joins them is EnrichingLattice's, and the law suite relies on it
    todo, seen = [EnrichingLattice], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    assert _TwoInfIsSup in seen and KbarPlusCartLattice in seen
    for cls in seen[1:]:
        assert not {"_sup", "_inf"} & set(vars(cls)), cls


@pytest.mark.parametrize("name", NUMERIC_NAMES)
def test_law_suite_runs_no_python_frame_per_subset(name):
    # the subset images are reduced by C-level maps of the builtin min and
    # max, so the Python calls the sup/inf laws add scale with the grid, not
    # with its (y, subset) pairs
    L = get_lattice(name)
    n = len(L.carrier_grid(3))
    counts = {}
    for max_subset in (3, 0):
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            assert law_violations(L, 3, max_subset) == []
        finally:
            sys.setprofile(outer)
        counts[max_subset] = len(calls)
    pairs = n * sum(comb(n, k) for k in range(4))
    assert counts[3] - counts[0] < pairs, (counts, pairs)


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("name", NUMERIC_NAMES)
def test_law_suite_runs_no_python_frame_per_triple(name, kind):
    # the triple laws read their terms from rows by C-level passes, so as the
    # grid grows the Python calls law_violations makes outside the lattice's
    # own methods grow with the distinct pairs its tensor and hom receive,
    # and not with the grid's triples
    L = get_lattice(name, kind)
    own = {getattr(getattr(L, a), "__code__", None) for a in dir(L)}
    ops = {L.tensor.__code__, L.hom.__code__}
    counts = {}
    for bound in (3, 5):
        seen = {"pairs": 0, "outside": 0, "depth": 0}

        def profile(frame, event, arg):
            if event == "call":
                if seen["depth"] or frame.f_code in own:
                    # each pair goes to an op once, so its calls count the pairs
                    seen["pairs"] += not seen["depth"] and frame.f_code in ops
                    seen["depth"] += 1
                else:
                    seen["outside"] += 1
            elif event == "return" and seen["depth"]:
                seen["depth"] -= 1

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            assert law_violations(L, bound) == []
        finally:
            sys.setprofile(outer)
        counts[bound] = seen
    n3, n5 = (len(L.carrier_grid(b)) for b in (3, 5))
    grown = {k: counts[5][k] - counts[3][k] for k in ("pairs", "outside")}
    assert grown["outside"] < grown["pairs"] < n5 ** 3 - n3 ** 3, (counts, n3, n5)


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


def _outside(name, kind):
    """Terms outside the carrier of lattice `name` of the given kind."""
    terms = [True, False, 0.5, float("nan"), Decimal("Infinity")]
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
            # alone, after carrier terms, as a tuple, and from an iterator as the law suite passes them
            for xs in ([bad], ok + [bad], tuple(ok) + (bad,), iter([bad] + ok)):
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
            # a tuple is checked in place, a one-shot iterator listed once first
            for shape in (list, tuple, iter, lambda ys: (y for y in ys)):
                for got, want in ((L.sup(shape(xs)), min(xs)), (L.inf(shape(xs)), max(xs))):
                    assert got == want and type(got) is type(want), xs


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_tensor_hom_refuse_operands_outside_the_carrier(name, kind):
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
            # with both operands outside, the first is named
            for x, y in [(bad, g) for g in grid] + [(g, bad) for g in grid] + [(bad, b) for b in outside]:
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
    C = VCategory(L, ("v",), [[one]])
    assert validate_category(C) == ["identity law fails at v: unit 0 is not below hom 1.0"]


def test_unknown_lattice_rejected():
    with pytest.raises(ValueError):
        get_lattice("three")
    with pytest.raises(ValueError, match="^scalar_kind must be 'int' or 'real'$"):
        get_lattice("kbar", "complex")
