"""Extended L-convex sets in difference-bound-matrix form.

A point p is the tuple of its coordinates in index order.  A set of
points closed under coordinatewise sup/inf and under adding constant
vectors is represented canonically by a square matrix dbm with

    p is a member  iff  dbm[v][w] >= p(w) - p(v)  for all v, w

using the extended subtraction tables.  The matrix itself must satisfy
the generalized-metric laws (triangle inequality, diagonal 0 or -inf);
`closure` turns arbitrary raw difference constraints into that form
without changing the feasible set.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext

from .scalars import EXACT, NEG_INF, POS_INF, ext_add, ext_sub
from .lattices import get_lattice
from .categories import VCategory, validate_category, self_enrichment, _index_maps


class LConvexSet(VCategory):
    """A dbm is a category over kbar; index, dbm and bound are its L-convex names."""

    def __init__(self, scalar_kind, index, dbm):
        super().__init__(get_lattice("kbar", scalar_kind), index, dbm)

    scalar_kind = property(lambda self: self.lattice.scalar_kind)
    index = property(lambda self: self.objects)
    dbm = property(lambda self: self.hom)
    bound = VCategory.hom_at
    # the constraint-matrix name, which perfbench's tracer reads off closure's argument
    matrix = property(lambda self: self.hom)


@dataclass(frozen=True)
class GeneratorSet:
    index: tuple
    points: tuple  # coordinate tuples in index order
    scalar_kind: str = "int"


def make_lcs(index, rows, scalar_kind="int"):
    return LConvexSet(scalar_kind, tuple(index), tuple(tuple(r) for r in rows))


validate_lcs = validate_category


def _check_arity(points, n):
    if any(len(p) != n for p in points):
        raise ValueError("a point needs %d coordinates, one per index" % n)


def member(D, p):
    """Membership: every difference constraint holds under extended subtraction."""
    _check_arity((p,), len(D.index))
    for x, row in zip(p, D.dbm):
        for y, bound in zip(p, row):
            if bound < ext_sub(y, x):
                return False
    return True


def from_generators(S):
    """Smallest extended L-convex set containing the given points.

    Each bound is the largest difference p(w) - p(v) achieved by a
    generator; with no generators every bound is -inf (the set containing
    only the all-inf and all-(-inf) points).
    """
    n = len(S.index)
    _check_arity(S.points, n)
    inf = get_lattice("kbar", S.scalar_kind).inf
    rows = tuple(tuple(inf([ext_sub(p[w], p[v]) for p in S.points]) for w in range(n))
                 for v in range(n))
    return LConvexSet(S.scalar_kind, tuple(S.index), rows)


_PASS_NINF = Decimal("-Infinity")


def closure(c):
    """Tightest law-satisfying dbm with the same feasible set as c.

    c is any square matrix over kbar, such as a VCategory or an LConvexSet;
    it need not satisfy the laws.  Diagonal entries are first clamped to 0
    or -inf, then one Floyd-Warshall pass tightens every bound, and every
    bound whose path can pass through an index on a strictly negative cycle
    collapses to -inf.  Infeasibility of finite points shows up as -inf
    entries, not as an error.  Real bounds are summed exactly under EXACT.
    """
    INF, NINF = POS_INF, NEG_INF
    n, zero = len(c.objects), c.lattice.unit
    # Within the pass -inf is Decimal("-Infinity"), which sums with ints and
    # Decimals alike: float -inf + Decimal raises, and -inf + 10**400 overflows.
    d = [[_PASS_NINF if x == NINF else x for x in row] for row in c.hom]
    # a negative diagonal is a negative cycle: -inf at once, so no lap is summed twice
    for i in range(n):
        d[i][i] = zero if d[i][i] >= 0 else _PASS_NINF
    # an inf bound is no constraint: skipping it keeps inf + -inf out of the sums
    with localcontext(EXACT):
        for k in range(n):
            dk = d[k]
            for i, row in enumerate(d):
                dik = row[k]
                if dik != INF:
                    for j, dkj in enumerate(dk):
                        if dkj != INF:
                            s = dik + dkj
                            if s < row[j]:
                                row[j] = _PASS_NINF if i == j else s
    # One collapse finishes the job: the pass leaves a negative diagonal on
    # the highest index of every simple negative cycle, and reachability is
    # already transitive, so the collapsed matrix keeps the triangle law.
    negative = [v for v in range(n) if d[v][v] < 0]
    for row in d:
        for v in negative:
            if row[v] != INF:
                for j in range(n):
                    if d[v][j] != INF:
                        row[j] = NINF
    rows = tuple(tuple(NINF if x == NINF else x for x in row) for row in d)
    return LConvexSet(c.lattice.scalar_kind, tuple(c.objects), rows)


def weight_shift(p, alpha, sign="plus"):
    """Add or subtract the constant vector alpha * 1 coordinatewise."""
    if sign == "plus":
        return tuple(ext_add(x, alpha) for x in p)
    if sign == "minus":
        return tuple(ext_sub(x, alpha) for x in p)
    raise ValueError("sign must be 'plus' or 'minus'")


# the real carrier holds every numeric payload, int or Decimal
_POINT_LATTICE = get_lattice("kbar", "real")


def point_sup(points, n):
    """Coordinatewise sup (usual min) of n-coordinate points; empty sup is the all-inf point."""
    return _pointwise(points, n, _POINT_LATTICE.sup)


def point_inf(points, n):
    """Coordinatewise inf (usual max) of n-coordinate points; empty inf is the all-(-inf) point."""
    return _pointwise(points, n, _POINT_LATTICE.inf)


def _pointwise(points, n, op):
    points = list(points)
    _check_arity(points, n)
    return tuple(op([p[i] for p in points]) for i in range(n))


def canonical_points(D):
    """The rows of the dbm, each a member of D."""
    return list(D.dbm)


def grid_members(D, bound=3):
    """All members whose coordinates lie in {-inf} u [-bound, bound] u {inf}.

    Integer scalar kind only; points come out in lexicographic order of
    the coordinate tuples with -inf first and inf last.
    """
    if D.scalar_kind != "int":
        raise ValueError("grid enumeration needs the integer scalar kind")
    # members are the functors from D into the grid enriched over itself:
    # p is one iff dbm[v][w] is below hom(p(v), p(w)) in kbar
    L, grid = D.lattice, D.lattice.carrier_grid(bound)
    return [tuple(map(grid.__getitem__, c))
            for c in _index_maps(D.dbm, self_enrichment(L, grid).hom, L.leq)]
