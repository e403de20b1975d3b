"""Extended scalars: K u {-inf, inf} for K the integers or reals, plus truth values.

All distances, coordinates and hom-values in this package are ExtScalar
instances.  The two infinities live in the tag, never in the payload, so
integer arithmetic stays exact and real arithmetic never sees a machine
infinity or NaN.  The extension tables for + and - are the unique ones
forced by the adjunction between them; in particular (-inf) + inf = inf
and inf - inf = -inf.
"""

import re

NINF_TAG = "ninf"
FIN_TAG = "fin"
PINF_TAG = "pinf"
TRUE_TAG = "true"
FALSE_TAG = "false"

_NUMERIC_NEG = float("-inf")
_NUMERIC_POS = float("inf")


class ExtScalar:
    __slots__ = ("tag", "value")

    def __init__(self, tag, value=None):
        if tag == FIN_TAG:
            if not isinstance(value, (int, float)):
                raise ValueError("finite scalar needs an int or float payload")
            if isinstance(value, float) and (value != value or value in (_NUMERIC_NEG, _NUMERIC_POS)):
                raise ValueError("finite scalar payload must be a finite number")
        elif value is not None:
            raise ValueError("only finite scalars carry a payload")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("ExtScalar is immutable")

    @property
    def num(self):
        """Numeric key: orders -inf < finite < inf under the usual order."""
        if self.tag == NINF_TAG:
            return _NUMERIC_NEG
        if self.tag == PINF_TAG:
            return _NUMERIC_POS
        if self.tag == FIN_TAG:
            return self.value
        raise ValueError("truth values have no numeric key")

    @property
    def is_fin(self):
        return self.tag == FIN_TAG

    @property
    def is_bool(self):
        return self.tag in (TRUE_TAG, FALSE_TAG)

    def __eq__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self):
        return hash((self.tag, self.value))

    def __repr__(self):
        return "ExtScalar(%s)" % format_scalar(self)


NEG_INF = ExtScalar(NINF_TAG)
POS_INF = ExtScalar(PINF_TAG)
TRUE = ExtScalar(TRUE_TAG)
FALSE = ExtScalar(FALSE_TAG)


def fin(value):
    """Wrap a finite int or float."""
    return ExtScalar(FIN_TAG, value)


def _require_numeric(*xs):
    for x in xs:
        if x.is_bool:
            raise ValueError("expected a numeric scalar, got %s" % format_scalar(x))


def ext_add(x, y):
    """Extended addition: inf absorbs on either side, then -inf does."""
    _require_numeric(x, y)
    if x.tag == PINF_TAG or y.tag == PINF_TAG:
        return POS_INF
    if x.tag == NINF_TAG or y.tag == NINF_TAG:
        return NEG_INF
    return fin(x.value + y.value)


def ext_sub(y, x):
    """Extended subtraction y - x (argument order matches hom(x, y) = y - x).

    Subtracting inf gives -inf for every y; subtracting -inf gives inf
    unless y itself is -inf.
    """
    _require_numeric(x, y)
    if x.tag == PINF_TAG:
        return NEG_INF
    if x.tag == NINF_TAG:
        return NEG_INF if y.tag == NINF_TAG else POS_INF
    if y.tag == PINF_TAG:
        return POS_INF
    if y.tag == NINF_TAG:
        return NEG_INF
    return fin(y.value - x.value)


def _require_nonneg(*xs):
    for x in xs:
        if x.is_bool or x.tag == NINF_TAG or (x.is_fin and x.value < 0):
            raise ValueError("operand %s not in the nonnegative carrier" % format_scalar(x))


def trunc_add(x, y):
    """Addition on the nonnegative carrier; inf absorbs."""
    _require_nonneg(x, y)
    if x.tag == PINF_TAG or y.tag == PINF_TAG:
        return POS_INF
    return fin(x.value + y.value)


def trunc_sub(y, x):
    """Truncated subtraction y - x on the nonnegative carrier.

    Subtracting inf gives 0 (even from inf); otherwise negative results
    truncate to 0.
    """
    _require_nonneg(x, y)
    if x.tag == PINF_TAG:
        return fin(_zero_like(y))
    if y.tag == PINF_TAG:
        return POS_INF
    d = y.value - x.value
    if d <= 0:
        return fin(_zero_like(y))
    return fin(d)


def _zero_like(*xs):
    """0.0 when some operand carries a real payload, else the integer 0."""
    return 0.0 if any(x.is_fin and isinstance(x.value, float) for x in xs) else 0


def _require_bool(*xs):
    for x in xs:
        if not x.is_bool:
            raise ValueError("expected a truth value, got %s" % format_scalar(x))


def bool_and(x, y):
    _require_bool(x, y)
    return TRUE if x == TRUE and y == TRUE else FALSE


def bool_implies(x, y):
    _require_bool(x, y)
    return TRUE if x == FALSE or y == TRUE else FALSE


def cart_max(x, y):
    """Tensor of the max-plus variant: usual maximum."""
    _require_nonneg(x, y)
    return x if x.num >= y.num else y


def cart_implies(x, y):
    """Hom of the max-plus variant: 0 when x already dominates y, else y."""
    _require_nonneg(x, y)
    if x.num >= y.num:
        return fin(_zero_like(x, y))
    return y


def format_scalar(x):
    if x.tag == NINF_TAG:
        return "-inf"
    if x.tag == PINF_TAG:
        return "inf"
    if x.tag == TRUE_TAG:
        return "true"
    if x.tag == FALSE_TAG:
        return "false"
    if isinstance(x.value, float):
        return repr(x.value)
    return str(x.value)


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
        return fin(int(text))
    if not _REAL_LITERAL.fullmatch(text):
        raise ValueError("bad real scalar literal: %r" % text)
    return fin(float(text))


def from_num(n):
    """The scalar with numeric key n: float infinities become the tags."""
    if n == _NUMERIC_NEG:
        return NEG_INF
    if n == _NUMERIC_POS:
        return POS_INF
    return fin(n)
