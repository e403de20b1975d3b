"""The four enriching lattices.

Each instance is a complete lattice with a commutative monotone tensor and
an internal hom related by the adjointness law

    tensor(x, y) <= z   iff   x <= hom(y, z)        (<= the lattice order)

For the numeric instances the lattice order is >=, the reverse of the
usual order, so lattice suprema are usual minima and vice versa.  The
instances are a closed enumeration: their empty-sup/inf conventions and
infinity tables are forced, not configurable.
"""

from . import scalars
from .scalars import (
    ExtScalar, NEG_INF, POS_INF, TRUE, FALSE, PINF_TAG, fin,
    ext_add, ext_sub, trunc_add, trunc_sub,
    bool_and, bool_implies, cart_max, cart_implies,
    format_scalar,
)


class EnrichingLattice:
    """Shared interface: order/tensor/hom/sup/inf plus carrier tests."""

    name = None

    def __init__(self, scalar_kind="int"):
        if scalar_kind not in ("int", "real"):
            raise ValueError("scalar_kind must be 'int' or 'real'")
        self.scalar_kind = scalar_kind

    def contains(self, x):
        raise NotImplementedError

    def leq(self, x, y):
        """The lattice order x below y."""
        raise NotImplementedError

    def tensor(self, x, y):
        raise NotImplementedError

    def hom(self, x, y):
        raise NotImplementedError

    def sup(self, xs):
        raise NotImplementedError

    def inf(self, xs):
        raise NotImplementedError

    def carrier_grid(self, bound):
        """Finite slice of the carrier used by exhaustive law checks."""
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.scalar_kind)

    def __eq__(self, other):
        return (isinstance(other, EnrichingLattice)
                and self.name == other.name
                and self.scalar_kind == other.scalar_kind)

    def __hash__(self):
        return hash((self.name, self.scalar_kind))


class TwoLattice(EnrichingLattice):
    """Truth values ordered by entailment; tensor is conjunction."""

    name = "two"
    unit = TRUE

    def contains(self, x):
        return isinstance(x, ExtScalar) and x.is_bool

    def leq(self, x, y):
        return x == FALSE or y == TRUE

    def tensor(self, x, y):
        return bool_and(x, y)

    def hom(self, x, y):
        return bool_implies(x, y)

    def sup(self, xs):
        xs = list(xs)
        for x in xs:
            if not self.contains(x):
                raise ValueError("not a truth value: %s" % format_scalar(x))
        return TRUE if any(x == TRUE for x in xs) else FALSE

    def inf(self, xs):
        xs = list(xs)
        for x in xs:
            if not self.contains(x):
                raise ValueError("not a truth value: %s" % format_scalar(x))
        return FALSE if any(x == FALSE for x in xs) else TRUE

    def carrier_grid(self, bound):
        return [FALSE, TRUE]


class _NumericLattice(EnrichingLattice):
    """Common machinery for the >=-ordered numeric instances."""

    def __init__(self, scalar_kind="int"):
        super().__init__(scalar_kind)
        # the scalar ops cannot see the kind, so the lattice owns its zero
        self.unit = fin(0.0 if scalar_kind == "real" else 0)

    def leq(self, x, y):
        return x.num >= y.num

    def sup(self, xs):
        # lattice sup = usual minimum; empty sup is the lattice bottom.
        best = None
        for x in xs:
            if not self.contains(x):
                raise ValueError("outside carrier: %s" % format_scalar(x))
            if best is None or x.num < best.num:
                best = x
        return POS_INF if best is None else best

    def inf(self, xs):
        best = None
        for x in xs:
            if not self.contains(x):
                raise ValueError("outside carrier: %s" % format_scalar(x))
            if best is None or x.num > best.num:
                best = x
        return self._top if best is None else best

    def _fin_ok(self, v):
        if self.scalar_kind == "int":
            return isinstance(v, int)
        return isinstance(v, (int, float))


class KbarLattice(_NumericLattice):
    """K u {-inf, inf} under >=; tensor is extended +, hom is extended -."""

    name = "kbar"
    _top = NEG_INF

    def contains(self, x):
        if not isinstance(x, ExtScalar) or x.is_bool:
            return False
        return not x.is_fin or self._fin_ok(x.value)

    def tensor(self, x, y):
        return ext_add(x, y)

    def hom(self, x, y):
        return ext_sub(y, x)

    def carrier_grid(self, bound):
        mk = float if self.scalar_kind == "real" else int
        return [NEG_INF] + [fin(mk(v)) for v in range(-bound, bound + 1)] + [POS_INF]


class KbarPlusLattice(_NumericLattice):
    """Nonnegative K u {inf} under >=; tensor +, hom truncated -."""

    name = "kbar_plus"
    _top = property(lambda self: self.unit)

    def contains(self, x):
        if not isinstance(x, ExtScalar) or x.is_bool or x.tag == scalars.NINF_TAG:
            return False
        return not x.is_fin or (self._fin_ok(x.value) and x.value >= 0)

    def tensor(self, x, y):
        return trunc_add(x, y)

    def hom(self, x, y):
        # hom(inf, inf) is the one zero whose payload no operand shows
        return self.unit if x.tag == y.tag == PINF_TAG else trunc_sub(y, x)

    def carrier_grid(self, bound):
        mk = float if self.scalar_kind == "real" else int
        return [fin(mk(v)) for v in range(0, bound + 1)] + [POS_INF]


class KbarPlusCartLattice(KbarPlusLattice):
    """Same carrier as KbarPlus but tensor is max (ultrametric flavor)."""

    name = "kbar_plus_cart"

    def tensor(self, x, y):
        return cart_max(x, y)

    def hom(self, x, y):
        return self.unit if x.tag == y.tag == PINF_TAG else cart_implies(x, y)


_LATTICES = {cls.name: cls for cls in
             (TwoLattice, KbarLattice, KbarPlusLattice, KbarPlusCartLattice)}


def get_lattice(name, scalar_kind="int"):
    if name not in _LATTICES:
        raise ValueError("unknown lattice %r (choose from %s)"
                         % (name, ", ".join(sorted(_LATTICES))))
    return _LATTICES[name](scalar_kind)


def check_adjointness(L, x, y, z):
    """True iff tensor(x,y) <= z holds exactly when x <= hom(y,z)."""
    return L.leq(L.tensor(x, y), z) == L.leq(x, L.hom(y, z))


def law_violations(L, bound=3, max_subset=3):
    """Exhaustive law check over the carrier grid; returns violation strings.

    Covers: adjointness, associativity, commutativity, unit laws,
    monotonicity of tensor and hom, sup/inf preservation (tensor preserves
    sups, hom(y,-) preserves infs, hom(-,z) turns sups into infs), the
    composition law hom(y,z) <= hom(hom(x,y), hom(x,z)), and recovery of
    hom from tensor as the sup of {x | tensor(x,y) <= z} whenever that sup
    lands inside the grid.
    """
    from itertools import combinations

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
