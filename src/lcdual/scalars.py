"""Extended scalars: K u {-inf, inf} for K the integers or reals, plus truth values.

A scalar is a plain Python number: a finite value is an int or, for the
real kind, a finite decimal.Decimal, and the two infinities are the
machine infinities POS_INF and NEG_INF.  Integer arithmetic is exact, and
decimal arithmetic runs under EXACT, a context that traps any rounding,
so sums and differences of parsed literals are exact too.  The extension
tables for + and - are the unique ones forced by the adjunction between
them; in particular (-inf) + inf = inf and inf - inf = -inf.  `ext_add`
and `ext_sub` hold the only copy of those tables, and they test for an
infinity before doing any arithmetic, so inf - inf is never computed and
NaN cannot arise.  The truth values TRUE and FALSE are two singletons, not
bools, because True == 1.
"""

import re
from string import whitespace
from decimal import (Context, Decimal, Inexact, InvalidOperation, Overflow,
                     MAX_EMAX, MAX_PREC, MIN_EMIN)

POS_INF = float("inf")
NEG_INF = float("-inf")

# Decimal arithmetic that raises instead of rounding
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                traps=[Inexact, InvalidOperation, Overflow])
# a real literal's Decimal exponent lies in [-MAX_EXPONENT, MAX_EXPONENT]; an
# exact sum's exponent is the smaller of its operands', so results stay inside
MAX_EXPONENT = 400


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


def _scalar_kind(kind):
    """kind, if it names a scalar kind: 'int' or 'real'."""
    if kind not in ("int", "real"):
        raise ValueError("scalar_kind must be 'int' or 'real'")
    return kind


def fin(value):
    """Check that value is an int or a finite Decimal, and return it."""
    if not (type(value) is int or type(value) is Decimal and value.is_finite()):
        raise ValueError("finite scalar needs an int or a finite Decimal, got %r" % (value,))
    return value


def ext_add(x, y):
    """Extended addition: inf absorbs on either side, then -inf does.

    With no infinity among them, both operands must be ints or finite
    Decimals (`fin`): True == 1, but a bool raises ValueError, unsummed.
    """
    if x == POS_INF or y == POS_INF:
        return POS_INF
    if x == NEG_INF or y == NEG_INF:
        return NEG_INF
    return x + y if type(x) is int and type(y) is int else EXACT.add(fin(x), fin(y))


def ext_sub(y, x):
    """Extended subtraction y - x (argument order matches hom(x, y) = y - x).

    Subtracting inf gives -inf for every y; subtracting -inf gives inf
    unless y itself is -inf.  Finite operands are checked as in ext_add.
    """
    if x == POS_INF:
        return NEG_INF
    if x == NEG_INF:
        return NEG_INF if y == NEG_INF else POS_INF
    if y == POS_INF or y == NEG_INF:
        return y
    return y - x if type(x) is int and type(y) is int else EXACT.subtract(fin(y), fin(x))


def format_scalar(x):
    """`inf`, `-inf`, `true`, `false`, or the number as str prints it.

    A Decimal prints losslessly with its exponent (`2.50`, `1E+308`), so
    the text parses back to the same Decimal.
    """
    return str(x)


_INT_LITERAL = re.compile(r"[+-]?[0-9]+")
_REAL_LITERAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_scalar(text, scalar_kind="int"):
    """Parse the scalar text syntax: `inf`, `-inf`, or a numeric literal.

    Integer kind accepts an optional ASCII sign and ASCII decimal digits;
    real kind accepts ASCII decimal literals with an optional exponent, as
    the exact Decimal, if its exponent lies within MAX_EXPONENT of 0.
    Surrounding ASCII whitespace is ignored; any other character is refused.
    """
    kind = _scalar_kind(scalar_kind)
    text = text.strip(whitespace)
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    if kind == "int":
        if not _INT_LITERAL.fullmatch(text):
            raise ValueError("bad integer scalar literal: %r" % text)
        return int(text)
    if not _REAL_LITERAL.fullmatch(text):
        raise ValueError("bad real scalar literal: %r" % text)
    try:
        value = EXACT.create_decimal(text)
        if -MAX_EXPONENT <= value.as_tuple().exponent <= MAX_EXPONENT:
            return value
    except ArithmeticError:  # an exponent beyond what a Decimal holds at all
        pass
    raise ValueError("real scalar literal %r has an exponent outside [-%d, %d]"
                     % (text, MAX_EXPONENT, MAX_EXPONENT))
