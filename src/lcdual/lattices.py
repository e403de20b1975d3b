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

    # an exact int at or above _floor lies in the carrier, so _checked skips
    # its contains call; no int reaches the default
    _floor = POS_INF

    def _checked(self, xs):
        """xs as a list, each member checked to lie in the carrier."""
        xs = list(xs)
        contains, floor = self.contains, self._floor
        for x in xs:
            # True is no int by type, so it still goes to contains, which refuses it
            if not (type(x) is int and x >= floor) and not contains(x):
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
        self._checked((x, y))
        return TRUE if x is TRUE and y is TRUE else FALSE

    def hom(self, x, y):
        self._checked((x, y))
        return TRUE if x is FALSE or y is TRUE else FALSE

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
        self._real = scalar_kind == "real"
        # the only zero: truncated results and the empty inf are this value
        self.unit = Decimal(0) if self._real else 0

    def leq(self, x, y):
        return x >= y

    # the law suite calls sup/inf thousands of times: min(xs) if xs else ...
    # gives the same value as min(xs, default=...) without the keyword parse
    def sup(self, xs):
        # lattice sup = usual minimum; empty sup is the lattice bottom.
        xs = self._checked(xs)
        return min(xs) if xs else POS_INF

    def inf(self, xs):
        xs = self._checked(xs)
        return max(xs) if xs else self._top

    def _grid(self, lo, bound):
        mk = Decimal if self._real else int
        return [mk(v) for v in range(lo, bound + 1)] + [POS_INF]


class KbarLattice(_NumericLattice):
    """K u {-inf, inf} under >=; tensor is extended +, hom is extended -."""

    name = "kbar"
    _top = _floor = NEG_INF

    def contains(self, x):
        # a type test: True == 1 and Decimal("Infinity") == POS_INF, but neither
        # is a payload
        t = type(x)
        return (t is int or t is float and (x == POS_INF or x == NEG_INF)
                or t is Decimal and self._real and x.is_finite())

    # unchecked, unlike the other lattices: validate_category's triple loop
    # runs here, on entries VCategory checked when it was built
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
    _floor = 0

    def contains(self, x):
        t = type(x)
        return (t is int and x >= 0 or t is float and x == POS_INF
                or t is Decimal and self._real and x.is_finite() and x >= 0)

    def tensor(self, x, y):
        self._checked((x, y))
        return ext_add(x, y)

    def hom(self, x, y):
        # y - x truncated at the unit; subtracting inf gives the unit, even from inf
        self._checked((x, y))
        d = ext_sub(y, x)
        return d if d > 0 else self.unit

    def carrier_grid(self, bound):
        return self._grid(0, bound)


class KbarPlusCartLattice(KbarPlusLattice):
    """Same carrier as KbarPlus but tensor is max (ultrametric flavor)."""

    name = "kbar_plus_cart"

    def tensor(self, x, y):
        self._checked((x, y))
        return max(x, y)

    def hom(self, x, y):
        self._checked((x, y))
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

    tensor and hom are tabulated over the grid once; an operand pair off the
    grid, such as a tensor of two grid values past the bound, goes to the
    lattice itself once and is then stored.  Each subset's sup and inf are
    computed once.  For each y the subset loop reads one column per law,
    a dict from s to tensor(s, y), hom(y, s) or hom(s, y), and hands the
    subset's images to the lattice's own sup/inf, which check every term
    against the carrier.
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
            if r is None:
                r = table[x, y] = op(x, y)
            return r
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
    sup, inf = L.sup, L.inf
    extremes = [(S, sup(S), inf(S)) for S in subsets]
    for y in G:
        t_col = {s: T[s, y] for s in G}.__getitem__
        h_row = {s: H[y, s] for s in G}.__getitem__
        h_col = {s: H[s, y] for s in G}.__getitem__
        for S, sup_s, inf_s in extremes:
            if tensor(sup_s, y) != sup(map(t_col, S)):
                note("tensor(-, %s) fails to preserve sups on a %d-subset" % ("%s", len(S)), y)
            if hom(y, inf_s) != inf(map(h_row, S)):
                note("hom(%s, -) fails to preserve infs on a %d-subset" % ("%s", len(S)), y)
            if hom(sup_s, y) != inf(map(h_col, S)):
                note("hom(-, %s) fails to turn sups into infs on a %d-subset" % ("%s", len(S)), y)

    for y in G:
        for z in G:
            recovered = sup([x for x in G if leq(T[x, y], z)])
            # only meaningful when the true sup is attained inside the grid
            if recovered in G and H[y, z] in G and recovered != H[y, z]:
                note("hom not recovered from tensor at (%s, %s)", y, z)
    return bad
