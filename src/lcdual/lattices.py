"""The four enriching lattices.

Each instance is a complete lattice with a commutative monotone tensor and
an internal hom related by the adjointness law

    tensor(x, y) <= z   iff   x <= hom(y, z)        (<= the lattice order)

For the numeric instances the lattice order is >=, the reverse of the
usual order, so lattice suprema are usual minima and vice versa.  The
instances are a closed enumeration: their empty-sup/inf conventions and
infinity tables are forced, not configurable.
"""

from decimal import Decimal

from .scalars import NEG_INF, POS_INF, TRUE, FALSE, ext_add, ext_sub, format_scalar


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

    def _checked(self, xs):
        """xs as a list, each member checked to lie in the carrier."""
        xs = list(xs)
        for x in xs:
            if not self.contains(x):
                raise ValueError("outside carrier: %s" % format_scalar(x))
        return xs

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
        return x is TRUE or x is FALSE

    def leq(self, x, y):
        return x is FALSE or y is TRUE

    def tensor(self, x, y):
        self._require_truths(x, y)
        return TRUE if x is TRUE and y is TRUE else FALSE

    def hom(self, x, y):
        self._require_truths(x, y)
        return TRUE if x is FALSE or y is TRUE else FALSE

    def _require_truths(self, x, y):
        for v in (x, y):
            if v is not TRUE and v is not FALSE:
                raise ValueError("expected a truth value, got %s" % format_scalar(v))

    def sup(self, xs):
        return TRUE if TRUE in self._checked(xs) else FALSE

    def inf(self, xs):
        return FALSE if FALSE in self._checked(xs) else TRUE

    def carrier_grid(self, bound):
        return [FALSE, TRUE]


class _NumericLattice(EnrichingLattice):
    """Common machinery for the >=-ordered numeric instances."""

    def __init__(self, scalar_kind="int"):
        super().__init__(scalar_kind)
        # the only zero: truncated results and the empty inf are this value
        self.unit = Decimal(0) if scalar_kind == "real" else 0

    def leq(self, x, y):
        return x >= y

    def sup(self, xs):
        # lattice sup = usual minimum; empty sup is the lattice bottom.
        return min(self._checked(xs), default=POS_INF)

    def inf(self, xs):
        return max(self._checked(xs), default=self._top)

    def _fin_ok(self, v):
        """An int (not a bool), or for the real kind also a finite Decimal."""
        return type(v) is int or (self.scalar_kind == "real" and type(v) is Decimal
                                  and v.is_finite())

    def _grid(self, lo, bound):
        mk = Decimal if self.scalar_kind == "real" else int
        return [mk(v) for v in range(lo, bound + 1)] + [POS_INF]


class KbarLattice(_NumericLattice):
    """K u {-inf, inf} under >=; tensor is extended +, hom is extended -."""

    name = "kbar"
    _top = NEG_INF

    def contains(self, x):
        # a type test: Decimal("Infinity") == POS_INF, but is no payload
        return self._fin_ok(x) or type(x) is float and (x == POS_INF or x == NEG_INF)

    def tensor(self, x, y):
        return ext_add(x, y)

    def hom(self, x, y):
        return ext_sub(y, x)

    def carrier_grid(self, bound):
        return [NEG_INF] + self._grid(-bound, bound)


class KbarPlusLattice(_NumericLattice):
    """Nonnegative K u {inf} under >=; tensor +, hom truncated -."""

    name = "kbar_plus"
    _top = property(lambda self: self.unit)

    def contains(self, x):
        return self._fin_ok(x) and x >= 0 or type(x) is float and x == POS_INF

    def tensor(self, x, y):
        self._require_nonneg(x, y)
        return ext_add(x, y)

    def hom(self, x, y):
        # y - x truncated at the unit; subtracting inf gives the unit, even from inf
        self._require_nonneg(x, y)
        d = ext_sub(y, x)
        return d if d > 0 else self.unit

    def _require_nonneg(self, x, y):
        for v in (x, y):
            if v is TRUE or v is FALSE or not v >= 0:
                raise ValueError("operand %s not in the nonnegative carrier" % format_scalar(v))

    def carrier_grid(self, bound):
        return self._grid(0, bound)


class KbarPlusCartLattice(KbarPlusLattice):
    """Same carrier as KbarPlus but tensor is max (ultrametric flavor)."""

    name = "kbar_plus_cart"

    def tensor(self, x, y):
        self._require_nonneg(x, y)
        return max(x, y)

    def hom(self, x, y):
        self._require_nonneg(x, y)
        return self.unit if x >= y else y


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

    tensor and hom are tabulated over the grid once, and each subset's sup
    and inf computed once; an operand off the grid, such as a tensor of two
    grid values past the bound, goes to the lattice itself.
    """
    from itertools import combinations

    G = L.carrier_grid(bound)
    leq = L.leq
    bad = []

    def note(msg, *vals):
        bad.append(msg % tuple(format_scalar(v) for v in vals))

    def tabulated(op):
        table = {(x, y): op(x, y) for x in G for y in G}

        def at(x, y):
            r = table.get((x, y))
            return op(x, y) if r is None else r
        return table, at

    T, tensor = tabulated(L.tensor)
    H, hom = tabulated(L.hom)

    for x in G:
        if tensor(L.unit, x) != x or tensor(x, L.unit) != x:
            note("unit law fails at %s", x)
    for x in G:
        for y in G:
            if T[x, y] != T[y, x]:
                note("commutativity fails at (%s, %s)", x, y)
    for x in G:
        for y in G:
            xy, hxy = T[x, y], H[x, y]
            for z in G:
                if tensor(xy, z) != tensor(x, T[y, z]):
                    note("associativity fails at (%s, %s, %s)", x, y, z)
                if leq(xy, z) != leq(x, H[y, z]):
                    note("adjointness fails at (%s, %s, %s)", x, y, z)
                if not leq(H[y, z], hom(hxy, H[x, z])):
                    note("composition law fails at (%s, %s, %s)", x, y, z)
    for x in G:
        for y in G:
            if not leq(x, y):
                continue
            for z in G:
                if not leq(T[x, z], T[y, z]):
                    note("tensor not monotone at (%s <= %s, %s)", x, y, z)
                if not leq(H[z, x], H[z, y]):
                    note("hom not monotone in target at (%s <= %s, %s)", x, y, z)
                if not leq(H[y, z], H[x, z]):
                    note("hom not antitone in source at (%s <= %s, %s)", x, y, z)

    subsets = [()]
    for k in range(1, max_subset + 1):
        subsets.extend(combinations(G, k))
    extremes = [(S, L.sup(S), L.inf(S)) for S in subsets]
    for y in G:
        for S, sup_s, inf_s in extremes:
            if tensor(sup_s, y) != L.sup([T[s, y] for s in S]):
                note("tensor(-, %s) fails to preserve sups on a %d-subset" % ("%s", len(S)), y)
            if hom(y, inf_s) != L.inf([H[y, s] for s in S]):
                note("hom(%s, -) fails to preserve infs on a %d-subset" % ("%s", len(S)), y)
            if hom(sup_s, y) != L.inf([H[s, y] for s in S]):
                note("hom(-, %s) fails to turn sups into infs on a %d-subset" % ("%s", len(S)), y)

    for y in G:
        for z in G:
            recovered = L.sup([x for x in G if leq(T[x, y], z)])
            # only meaningful when the true sup is attained inside the grid
            if recovered in G and H[y, z] in G and recovered != H[y, z]:
                note("hom not recovered from tensor at (%s, %s)", y, z)
    return bad
