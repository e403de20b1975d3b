import pytest

from lcdual.lattices import get_lattice, check_adjointness, law_violations
from lcdual.scalars import NEG_INF, POS_INF, TRUE, FALSE, fin
from lcdual.categories import make_category, validate_category


ALL_NAMES = ["two", "kbar", "kbar_plus", "kbar_plus_cart"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_law_suite_clean(name):
    L = get_lattice(name)
    assert law_violations(L, bound=3) == []


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


def test_carrier_membership():
    kplus = get_lattice("kbar_plus")
    assert not kplus.contains(NEG_INF)
    assert not kplus.contains(fin(-1))
    assert kplus.contains(POS_INF)
    with pytest.raises(ValueError):
        kplus.sup([fin(-1)])


def test_real_kind_grid_is_float():
    kbar = get_lattice("kbar", "real")
    grid = kbar.carrier_grid(1)
    finite = [x for x in grid if x.is_fin]
    assert all(isinstance(x.value, float) for x in finite)
    assert law_violations(kbar, bound=2) == []


@pytest.mark.parametrize("name", ["kbar", "kbar_plus", "kbar_plus_cart"])
def test_real_kind_zeros_are_float(name):
    L = get_lattice(name, "real")
    values = [L.unit, L.inf([]), L.hom(POS_INF, POS_INF), L.hom(fin(1.0), fin(1.0))]
    assert all(isinstance(x.value, float) for x in values if x.is_fin)
    C = make_category(L, ("v",), [[fin(1.0)]])
    assert validate_category(C) == ["identity law fails at v: unit 0.0 is not below hom 1.0"]


def test_unknown_lattice_rejected():
    with pytest.raises(ValueError):
        get_lattice("three")
