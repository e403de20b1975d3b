"""Extended scalars: K u {-inf, inf} for K the integers or reals, plus truth values.

A scalar is a plain Python number: a finite value is an int or a finite
float, and the two infinities are the machine infinities POS_INF and
NEG_INF.  Integer arithmetic stays exact.  The extension tables for + and
- are the unique ones forced by the adjunction between them; in particular
(-inf) + inf = inf and inf - inf = -inf.  `ext_add` and `ext_sub` hold the
only copy of those tables, and they test for an infinity before doing any
arithmetic, so inf - inf is never computed and NaN cannot arise.  When two
finite floats sum past the float range, the result is the exact Fraction
instead of a machine infinity: Python compares a Fraction exactly with
ints, floats and the infinities, so the order tests stay right, and no
carrier admits it, so it is never stored.  The truth values TRUE and FALSE
are two singletons, not bools, because True == 1.
"""

import re
from decimal import Context
from fractions import Fraction

POS_INF = float("inf")
NEG_INF = float("-inf")


class _Truth:
    """A truth value of the lattice `two`; equal only to itself."""

    __slots__ = ("_text",)

    def __init__(self, text):
        self._text = text

    def __repr__(self):
        return self._text

    def __reduce__(self):  # copies and pickles are the singleton itself
        return self._text.upper()


TRUE = _Truth("true")
FALSE = _Truth("false")


def fin(value):
    """Check that value is a finite int or float, and return it."""
    if type(value) not in (int, float) or not NEG_INF < value < POS_INF:
        raise ValueError("finite scalar needs an int or a finite float, got %r" % (value,))
    return value


def ext_add(x, y):
    """Extended addition: inf absorbs on either side, then -inf does.

    A sum of finite floats past the float range is the exact Fraction.
    """
    if x == POS_INF or y == POS_INF:
        return POS_INF
    if x == NEG_INF or y == NEG_INF:
        return NEG_INF
    s = x + y
    return Fraction(x) + Fraction(y) if abs(s) == POS_INF else s


def ext_sub(y, x):
    """Extended subtraction y - x (argument order matches hom(x, y) = y - x).

    Subtracting inf gives -inf for every y; subtracting -inf gives inf
    unless y itself is -inf.  A finite difference past the float range is
    the exact Fraction.
    """
    if x == POS_INF:
        return NEG_INF
    if x == NEG_INF:
        return NEG_INF if y == NEG_INF else POS_INF
    if y == POS_INF or y == NEG_INF:
        return y
    d = y - x
    return Fraction(y) - Fraction(x) if abs(d) == POS_INF else d


def format_scalar(x):
    """`inf`, `-inf`, `true`, `false`, or the number as Python prints it."""
    if isinstance(x, Fraction):  # an exact sum beyond the float range
        return format(Context(prec=17).divide(x.numerator, x.denominator).normalize(), "g")
    return repr(x)


_INT_LITERAL = re.compile(r"[+-]?[0-9]+")
_REAL_LITERAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_scalar(text, scalar_kind="int"):
    """Parse the scalar text syntax: `inf`, `-inf`, or a numeric literal.

    Integer kind accepts an optional ASCII sign and ASCII decimal digits;
    real kind accepts ASCII decimal literals with an optional exponent.
    """
    text = text.strip()
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    if scalar_kind == "int":
        if not _INT_LITERAL.fullmatch(text):
            raise ValueError("bad integer scalar literal: %r" % text)
        return int(text)
    if not _REAL_LITERAL.fullmatch(text):
        raise ValueError("bad real scalar literal: %r" % text)
    return fin(float(text))
