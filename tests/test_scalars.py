import copy
import pickle
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from lcdual.scalars import (
    NEG_INF, POS_INF, TRUE, FALSE, fin,
    ext_add, ext_sub,
    parse_scalar, format_scalar, MAX_EXPONENT,
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


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_truth_values_copy_to_themselves(how):
    dup = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
           "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
    assert dup(TRUE) is TRUE and dup(FALSE) is FALSE


def test_cart_ops():
    cart = get_lattice("kbar_plus_cart")
    assert cart.hom(fin(5), fin(3)) == fin(0)
    assert cart.hom(fin(2), fin(7)) == fin(7)
    assert cart.hom(POS_INF, fin(9)) == fin(0)
    assert isinstance(get_lattice("kbar_plus_cart", "real").hom(POS_INF, Decimal("2.5")), Decimal)
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
    st.decimals(min_value=-1000, max_value=1000, places=3),
    st.sampled_from([Decimal(t) for t in ("1e308", "-1e308", "1.7976931348623157e308",
                                          "1e400", "-1e400", "1e-400", "-1e-400")]))


@given(FINITE_REALS, FINITE_REALS)
def test_finite_sums_stay_finite(x, y):
    # sums and differences are exact finite Decimals: never a machine
    # infinity, a NaN, or a rounded value (1e400 + 1e-400 gives 1e-400 back)
    s, d = ext_add(x, y), ext_sub(y, x)
    assert fin(s) is s and fin(d) is d
    assert ext_sub(s, y) == x and ext_add(d, x) == y


@given(st.sampled_from(EXT_GRID), st.sampled_from(EXT_GRID), st.sampled_from(EXT_GRID))
def test_add_associative_commutative(x, y, z):
    assert ext_add(x, y) == ext_add(y, x)
    assert ext_add(ext_add(x, y), z) == ext_add(x, ext_add(y, z))


def test_parse_format_roundtrip():
    for x in EXT_GRID:
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar("inf") == POS_INF
    assert parse_scalar("-inf") == NEG_INF
    assert parse_scalar("2.5", "real") == Decimal("2.5")
    for text in ("2.50", "1E+308", "-0", "1E-400"):  # str(Decimal) keeps the exponent
        assert format_scalar(parse_scalar(text, "real")) == text
    assert format_scalar(parse_scalar("1e308", "real")) == "1E+308"
    with pytest.raises(ValueError):
        parse_scalar("in")
    with pytest.raises(ValueError):
        parse_scalar("2.5", "int")
    for kind in ("Int", "complex"):
        with pytest.raises(ValueError, match="^scalar_kind must be 'int' or 'real'$"):
            parse_scalar("7", kind)


def test_no_machine_infinities_in_payload():
    for bad in (float("inf"), float("nan"), 0.5, Decimal("Infinity"), Decimal("NaN"), True):
        with pytest.raises(ValueError):
            fin(bad)


@pytest.mark.parametrize("name", ["kbar", "kbar_plus", "kbar_plus_cart"])
def test_real_carrier_refuses_floats_and_decimal_specials(name):
    L = get_lattice(name, "real")
    assert L.contains(Decimal("2.5")) and L.contains(2) and L.contains(POS_INF)
    # Decimal("Infinity") == POS_INF, but it is no payload
    for bad in (2.5, 0.0, Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"),
                Decimal("sNaN"), float("nan")):
        assert not L.contains(bad)
    assert not get_lattice(name).contains(Decimal("2"))


def test_real_literal_exponents_are_bounded():
    # 0e-99999999 + 1 would need a coefficient of 10**8 digits
    for text in ("1e-99999999", "0e-99999999", "1e401", "1e-401", "1e999999999999999999999999"):
        with pytest.raises(ValueError, match="exponent outside"):
            parse_scalar(text, "real")
    # the bound itself parses, 1e400 included
    assert parse_scalar("1e%d" % MAX_EXPONENT, "real") == 10 ** MAX_EXPONENT
    assert parse_scalar("-1e-%d" % MAX_EXPONENT, "real").as_tuple().exponent == -MAX_EXPONENT
    assert parse_scalar("1000e398", "real").as_tuple().exponent == 398
    # an integer literal has no exponent to bound
    assert parse_scalar("1" + "0" * 500) == 10 ** 500
