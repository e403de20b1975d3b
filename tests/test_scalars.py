import sys

import pytest
from hypothesis import given, strategies as st

from lcdual.scalars import (
    NEG_INF, POS_INF, TRUE, FALSE, fin,
    ext_add, ext_sub,
    parse_scalar, format_scalar,
)
from lcdual.lattices import get_lattice


EXT_GRID = [NEG_INF] + [fin(v) for v in range(-3, 4)] + [POS_INF]


def test_ext_add_table():
    # the full extension table: rows x, columns y
    assert ext_add(NEG_INF, NEG_INF) == NEG_INF
    assert ext_add(NEG_INF, fin(5)) == NEG_INF
    assert ext_add(NEG_INF, POS_INF) == POS_INF
    assert ext_add(fin(2), NEG_INF) == NEG_INF
    assert ext_add(fin(2), fin(3)) == fin(5)
    assert ext_add(fin(2), POS_INF) == POS_INF
    assert ext_add(POS_INF, NEG_INF) == POS_INF
    assert ext_add(POS_INF, fin(-7)) == POS_INF
    assert ext_add(POS_INF, POS_INF) == POS_INF


def test_ext_sub_table():
    # ext_sub(y, x) computes y - x; columns indexed by x
    assert ext_sub(NEG_INF, NEG_INF) == NEG_INF
    assert ext_sub(fin(4), NEG_INF) == POS_INF
    assert ext_sub(POS_INF, NEG_INF) == POS_INF
    assert ext_sub(NEG_INF, fin(2)) == NEG_INF
    assert ext_sub(fin(7), fin(3)) == fin(4)
    assert ext_sub(POS_INF, fin(2)) == POS_INF
    assert ext_sub(NEG_INF, POS_INF) == NEG_INF
    assert ext_sub(fin(4), POS_INF) == NEG_INF
    assert ext_sub(POS_INF, POS_INF) == NEG_INF


def test_trunc_tables():
    kp = get_lattice("kbar_plus")
    assert kp.hom(POS_INF, POS_INF) == fin(0)
    assert kp.hom(POS_INF, fin(4)) == fin(0)
    assert kp.hom(fin(5), fin(3)) == fin(0)
    assert kp.hom(fin(3), fin(5)) == fin(2)
    assert kp.hom(fin(4), POS_INF) == POS_INF
    assert kp.tensor(fin(2), fin(3)) == fin(5)
    assert kp.tensor(POS_INF, fin(1)) == POS_INF
    assert kp.tensor(fin(0), POS_INF) == POS_INF


def test_trunc_rejects_negatives():
    kp = get_lattice("kbar_plus")
    with pytest.raises(ValueError):
        kp.tensor(NEG_INF, fin(1))
    with pytest.raises(ValueError):
        kp.hom(fin(-2), fin(1))


def test_bool_ops():
    two = get_lattice("two")
    assert two.hom(FALSE, FALSE) == TRUE
    assert two.hom(TRUE, FALSE) == FALSE
    assert two.hom(FALSE, TRUE) == TRUE
    assert two.tensor(TRUE, TRUE) == TRUE
    assert two.tensor(TRUE, FALSE) == FALSE


def test_cart_ops():
    cart = get_lattice("kbar_plus_cart")
    assert cart.hom(fin(5), fin(3)) == fin(0)
    assert cart.hom(fin(2), fin(7)) == fin(7)
    assert cart.hom(POS_INF, fin(9)) == fin(0)
    assert isinstance(get_lattice("kbar_plus_cart", "real").hom(POS_INF, fin(2.5)), float)
    assert cart.tensor(fin(2), fin(7)) == fin(7)
    assert cart.tensor(POS_INF, fin(7)) == POS_INF


def test_sup_inf_conventions():
    K = get_lattice("kbar")
    assert K.sup([]) == POS_INF
    assert K.inf([]) == NEG_INF
    assert K.inf([NEG_INF, fin(2), fin(5)]) == fin(5)
    assert K.sup([fin(3)]) == fin(3)
    assert K.sup([fin(3), NEG_INF]) == NEG_INF


def test_unit_law_over_grid():
    for x in EXT_GRID:
        assert ext_add(fin(0), x) == x
        assert ext_add(x, fin(0)) == x


@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=-10**9, max_value=10**9))
def test_add_sub_cancel_on_finites(a, b):
    assert ext_sub(ext_add(fin(a), fin(b)), fin(b)) == fin(a)


FINITE_REALS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([1e308, -1e308, sys.float_info.max, -sys.float_info.max]))


@given(FINITE_REALS, FINITE_REALS)
def test_finite_sums_stay_finite(x, y):
    # past the float range the result is exact, never a machine infinity or NaN
    for r in (ext_add(x, y), ext_sub(y, x)):
        assert r == r and r not in (POS_INF, NEG_INF)


@given(st.sampled_from(EXT_GRID), st.sampled_from(EXT_GRID), st.sampled_from(EXT_GRID))
def test_add_associative_commutative(x, y, z):
    assert ext_add(x, y) == ext_add(y, x)
    assert ext_add(ext_add(x, y), z) == ext_add(x, ext_add(y, z))


def test_parse_format_roundtrip():
    for x in EXT_GRID:
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar("inf") == POS_INF
    assert parse_scalar("-inf") == NEG_INF
    assert parse_scalar("2.5", "real") == fin(2.5)
    with pytest.raises(ValueError):
        parse_scalar("in")
    with pytest.raises(ValueError):
        parse_scalar("2.5", "int")


def test_no_machine_infinities_in_payload():
    with pytest.raises(ValueError):
        fin(float("inf"))
    with pytest.raises(ValueError):
        fin(float("nan"))
