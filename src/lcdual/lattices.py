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
from functools import cache
from itertools import chain, combinations, compress, repeat, zip_longest
from operator import floordiv, ge, itemgetter, mod, ne, not_, or_

from .scalars import NEG_INF, POS_INF, TRUE, FALSE, ext_add, ext_sub, format_scalar, _scalar_kind


class EnrichingLattice:
    """Shared machinery.  Each lattice defines contains(x), leq(x, y) (the
    order, x below y), the raw formulas _tensor(x, y), _hom(x, y), _join(xs)
    and _meet(xs) (the sup and inf of a nonempty tuple or list xs), the empty
    sup and inf _bottom and _top, unit and carrier_grid(bound), the finite
    slice of the carrier the law checks use; tensor and hom check both
    operands, sup and inf every term, then run the raw formula."""

    name = None

    def __init__(self, scalar_kind="int"):
        self.scalar_kind = _scalar_kind(scalar_kind)

    # an exact int at or above _floor lies in the carrier, so _checked skips
    # its contains call; no int reaches the default
    _floor = POS_INF

    def _checked(self, xs):
        """xs as a tuple or list, each member checked to lie in the carrier;
        a tuple is checked in place, anything else is listed once first."""
        if type(xs) is not tuple:
            xs = list(xs)
        floor = self._floor
        for x in xs:
            # True is no int by type, so it still goes to contains, which refuses it
            if not (type(x) is int and x >= floor) and not self.contains(x):
                raise ValueError("outside carrier: %s" % format_scalar(x))
        return xs

    # each operand by _checked's own rule, without building its tuple; one
    # outside the carrier goes to _checked, which names the first of them
    def tensor(self, x, y):
        if not ((type(x) is int and x >= self._floor or self.contains(x))
                and (type(y) is int and y >= self._floor or self.contains(y))):
            self._checked((x, y))
        return self._tensor(x, y)

    def hom(self, x, y):
        if not ((type(x) is int and x >= self._floor or self.contains(x))
                and (type(y) is int and y >= self._floor or self.contains(y))):
            self._checked((x, y))
        return self._hom(x, y)

    def _sup(self, xs):
        return self._join(xs) if xs else self._bottom

    def _inf(self, xs):
        return self._meet(xs) if xs else self._top

    def sup(self, xs):
        return self._sup(self._checked(xs))

    def inf(self, xs):
        return self._inf(self._checked(xs))

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
    unit = _top = TRUE
    _bottom = FALSE

    def contains(self, x):
        return x is TRUE or x is FALSE

    def leq(self, x, y):
        return x is FALSE or y is TRUE

    def _tensor(self, x, y):
        return TRUE if x is TRUE and y is TRUE else FALSE

    def _hom(self, x, y):
        return TRUE if x is FALSE or y is TRUE else FALSE

    @staticmethod
    def _join(xs):
        return TRUE if TRUE in xs else FALSE

    @staticmethod
    def _meet(xs):
        return FALSE if FALSE in xs else TRUE

    def carrier_grid(self, bound):
        return [FALSE, TRUE]


class _NumericLattice(EnrichingLattice):
    """Common machinery for the >=-ordered numeric instances."""

    def __init__(self, scalar_kind="int"):
        super().__init__(scalar_kind)
        self._real = scalar_kind == "real"
        # the only zero: truncated results and the empty inf are this value
        self.unit = Decimal(0) if self._real else 0

    # x >= y as a builtin: a C-level map over it runs no Python frame
    leq = staticmethod(ge)

    # sup = usual min, inf = usual max; a C-level map over a builtin runs no frame
    _join, _meet = staticmethod(min), staticmethod(max)
    _bottom = POS_INF

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

    _tensor = staticmethod(ext_add)

    def _hom(self, x, y):
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

    _tensor = staticmethod(ext_add)

    def _hom(self, x, y):
        # y - x truncated at the unit; subtracting inf gives the unit, even from inf
        d = ext_sub(y, x)
        return d if d > 0 else self.unit

    def carrier_grid(self, bound):
        return self._grid(0, bound)


class KbarPlusCartLattice(KbarPlusLattice):
    """Same carrier as KbarPlus but tensor is max (ultrametric flavor)."""

    name = "kbar_plus_cart"

    _tensor = staticmethod(max)

    def _hom(self, x, y):
        return self.unit if x >= y else y


_LATTICES = {cls.name: cls for cls in
             (TwoLattice, KbarLattice, KbarPlusLattice, KbarPlusCartLattice)}


def get_lattice(name, scalar_kind="int"):
    if name not in _LATTICES:
        raise ValueError("unknown lattice %r (choose from %s)"
                         % (name, ", ".join(sorted(_LATTICES))))
    return _LATTICES[name](scalar_kind)


def law_violations(L, bound=3, max_subset=3):
    """Exhaustive law check over the carrier grid; returns violation strings.

    Covers: adjointness, associativity, commutativity, unit laws,
    monotonicity of tensor and hom, sup/inf preservation (tensor preserves
    sups, hom(y,-) preserves infs, hom(-,z) turns sups into infs), the
    composition law hom(y,z) <= hom(hom(x,y), hom(x,z)), and recovery of
    hom from tensor as the sup of {x | tensor(x,y) <= z} whenever that sup
    lands inside the grid.

    Each operand pair the laws name, on the grid or off it, goes to the
    lattice's own tensor or hom once, through a memo that fills the grid's
    tables and, for associativity and adjointness, one row per operand: each
    of their terms is read from its row by position, so none hashes a pair.
    Each block of laws is decided by C-level passes over operand columns, one
    entry per law instance; Python walks only the failing ones, to write
    their notes in order.  The grid is checked against the carrier once, and
    for each y the columns tensor(s, y), hom(y, s) and hom(s, y) whole, so
    every term the raw _join/_meet receive is checked.
    """
    G = L._checked(L.carrier_grid(bound))
    n, leq, unit, join, meet = len(G), L.leq, L.unit, L._join, L._meet
    bad = []

    def note(msg, *vals):
        bad.append(msg % tuple(format_scalar(v) for v in vals))

    def walk(at, msgs, *flags):
        """At each index k where some flag is true, in order, note every
        message whose flag is true there, with the values at(k)."""
        flags = list(map(list, flags))
        if not any(map(any, flags)):  # a block that holds costs one scan
            return
        # in lockstep: each instance's laws in order; a law given no flags holds
        rows = list(zip_longest(*flags, fillvalue=False))
        for k, row in compress(enumerate(rows), map(any, rows)):
            for msg in compress(msgs, row):
                note(msg, *at(k))

    def spread(seq, m):  # seq with each member repeated m times in place
        return list(chain.from_iterable(map(repeat, seq, repeat(m))))

    def rows_of(M, idx):  # the rows M[i] for i in idx, end to end
        return chain.from_iterable(map(M.__getitem__, idx))

    def picked(rows, keys):  # row[k] for each k of the keys beside each row, end to end
        return chain.from_iterable(map(map, map(getattr, rows, repeat("__getitem__")), keys))

    def fails(holds):  # flags where the list holds is false, or none if it is all true
        return () if all(holds) else map(not_, holds)

    def table(op, xs, yss):  # for each x of xs, op(x, y) over the ys of yss beside it
        return list(map(list, map(map, repeat(op), map(repeat, xs), yss)))

    def distinct(xs):  # the list xs's distinct entries in order, and each entry's position there
        vals = list(dict.fromkeys(xs))
        return vals, list(map(dict(zip(vals, range(len(vals)))).__getitem__, xs))

    tensor, hom = cache(L.tensor), cache(L.hom)
    # the grid's tables, T[i][j] = tensor(G[i], G[j]) and H[i][j] = hom(G[i], G[j])
    T, H = table(tensor, G, repeat(G)), table(hom, G, repeat(G))
    Tt, Ht = list(map(list, zip(*T))), list(map(list, zip(*H)))
    flat_T, flat_H = list(rows_of(T, range(n))), list(rows_of(H, range(n)))

    walk(lambda k: (G[k],), ["unit law fails at %s"],
         map(or_, map(ne, map(tensor, repeat(unit), G), G),
             map(ne, map(tensor, G, repeat(unit)), G)))
    walk(lambda k: (G[k // n], G[k % n]), ["commutativity fails at (%s, %s)"],
         map(ne, flat_T, rows_of(Tt, range(n))))

    def triple_flags():
        """Flags of associativity, adjointness and the composition law at the
        triple (G[i], G[j], G[l]), index (i * n + j) * n + l.

        Each side of associativity and adjointness is read by position from
        rows: op(T[i][j], G[l]) from the row of T[i][j] over the grid, and
        op(G[i], M[j][l]) from G[i]'s row over the distinct entries of M = T
        or H.  The rows ask the memo for just the pairs the laws name, and
        each term is a C-level read; they are garbage once walked.  The
        composition law reads hom(H[i][j], H[i][l]) through the memo."""
        t_vals, t_flat = distinct(flat_T)
        assoc = (rows_of(table(tensor, t_vals, repeat(G)), t_flat),
                 picked(table(tensor, G, repeat(t_vals)), repeat(t_flat)))
        h_vals, h_flat = distinct(flat_H)
        adjoint = (rows_of(table(leq, t_vals, repeat(G)), t_flat),
                   picked(table(leq, G, repeat(h_vals)), repeat(h_flat)))
        composed = map(hom, spread(flat_H, n), rows_of(H, spread(range(n), n)))
        return map(ne, *assoc), map(ne, *adjoint), fails(list(map(leq, flat_H * n, composed)))

    walk(lambda k: (G[k // n // n], G[k // n % n], G[k % n]),
         ["associativity fails at (%s, %s, %s)", "adjointness fails at (%s, %s, %s)",
          "composition law fails at (%s, %s, %s)"], *triple_flags())

    # the pairs x <= y, then z, at index p * n + l
    P = list(compress(range(n * n), map(leq, spread(G, n), G * n)))
    xs, ys = list(map(floordiv, P, repeat(n))), list(map(mod, P, repeat(n)))
    walk(lambda k: (G[xs[k // n]], G[ys[k // n]], G[k % n]),
         ["tensor not monotone at (%s <= %s, %s)", "hom not monotone in target at (%s <= %s, %s)",
          "hom not antitone in source at (%s <= %s, %s)"],
         fails(list(map(leq, rows_of(T, xs), rows_of(T, ys)))),
         fails(list(map(leq, rows_of(Ht, xs), rows_of(Ht, ys)))),
         fails(list(map(leq, rows_of(H, ys), rows_of(H, xs)))))

    ks = range(1, max_subset + 1)
    bottom, top = L._sup(()), L._inf(())

    def reduced(col, op, empty):  # op over each subset of col, the empty one first, then by size
        return chain((empty,), *map(map, repeat(op), map(combinations, repeat(col), ks)))

    sizes = list(reduced(G, len, 0))
    sups, infs = list(reduced(G, join, bottom)), list(reduced(G, meet, top))
    # each distinct value once, and each subset's value as its position there,
    # read from a row in one C call; itemgetter gives a tuple from two or more
    # positions, and with the empty subset alone a row is its one value
    (some_sups, sup_at), (some_infs, inf_at) = distinct(sups), distinct(infs)
    sup_of, inf_of = (itemgetter(*sup_at), itemgetter(*inf_at)) if ks else (tuple, tuple)
    subset_msgs = ["tensor(-, %s) fails to preserve sups on a %s-subset",
                   "hom(%s, -) fails to preserve infs on a %s-subset",
                   "hom(-, %s) fails to turn sups into infs on a %s-subset"]
    for t_col, h_row, h_col, y in zip(Tt, H, Ht, G):
        if ks:
            L._checked(t_col + h_row + h_col)
        t_row = list(map(tensor, some_sups, repeat(y)))
        hr_row = list(map(hom, repeat(y), some_infs))
        hc_row = list(map(hom, some_sups, repeat(y)))
        # each law's two sides over every subset; y's notes come before the next y's
        want = sup_of(t_row), inf_of(hr_row), sup_of(hc_row)
        got = (tuple(reduced(t_col, join, bottom)), tuple(reduced(h_row, meet, top)),
               tuple(reduced(h_col, meet, top)))
        if want != got:
            walk(lambda k: (y, sizes[k]), subset_msgs, *map(map, repeat(ne), want, got))

    # per (y, z): the sup of the x with tensor(x, y) <= z
    below = map(map, repeat(leq), spread(Tt, n), map(repeat, G * n))
    recovered = list(map(L._sup, map(tuple, map(compress, repeat(G), below))))
    for k in compress(range(n * n), map(ne, recovered, flat_H)):
        # only meaningful when the true sup is attained inside the grid
        if recovered[k] in G and flat_H[k] in G:
            note("hom not recovered from tensor at (%s, %s)", G[k // n], G[k % n])
    return bad
