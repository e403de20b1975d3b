"""Extended L-convex sets in difference-bound-matrix form.

A set of points p in Kbar^index closed under coordinatewise sup/inf and
under adding constant vectors is represented canonically by a square
matrix dbm with

    p is a member  iff  dbm[v][w] >= p(w) - p(v)  for all v, w

using the extended subtraction tables.  The matrix itself must satisfy
the generalized-metric laws (triangle inequality, diagonal 0 or -inf);
`closure` turns arbitrary raw difference constraints into that form
without changing the feasible set.
"""

from dataclasses import dataclass
from itertools import product

from .scalars import (
    ExtScalar, NEG_INF, POS_INF, fin, from_num,
    ext_add, ext_sub, ext_sup, ext_inf, nadd, nsub, format_scalar,
)
from .lattices import get_lattice
from .categories import VCategory, validate_category


class PointVector:
    """A coordinate assignment from index labels to extended scalars."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = dict(coords)

    def __getitem__(self, label):
        return self.coords[label]

    def labels(self):
        return tuple(self.coords)

    def __eq__(self, other):
        if not isinstance(other, PointVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self.coords.items())))

    def __repr__(self):
        inner = ", ".join("%s=%s" % (k, format_scalar(v)) for k, v in self.coords.items())
        return "PointVector(%s)" % inner


class LConvexSet(VCategory):
    """A dbm is a category over kbar; index, dbm and bound are its L-convex names."""

    def __init__(self, scalar_kind, index, dbm):
        super().__init__(get_lattice("kbar", scalar_kind), index, dbm)

    scalar_kind = property(lambda self: self.lattice.scalar_kind)
    index = property(lambda self: self.objects)
    dbm = property(lambda self: self.hom)
    bound = VCategory.hom_at


@dataclass(frozen=True)
class RawConstraints:
    scalar_kind: str
    index: tuple
    matrix: tuple  # same shape as a dbm, no law requirement


@dataclass(frozen=True)
class GeneratorSet:
    index: tuple
    points: tuple  # PointVectors, each total over index
    scalar_kind: str = "int"


def make_lcs(index, rows, scalar_kind="int"):
    return LConvexSet(scalar_kind, tuple(index), tuple(tuple(r) for r in rows))


validate_lcs = validate_category


def member(D, p):
    """Membership: every difference constraint holds under extended subtraction."""
    for v in D.index:
        for w in D.index:
            if D.bound(v, w).num < ext_sub(p[w], p[v]).num:
                return False
    return True


def from_generators(S):
    """Smallest extended L-convex set containing the given points.

    Each bound is the largest difference p(w) - p(v) achieved by a
    generator; with no generators every bound is -inf (the set containing
    only the all-inf and all-(-inf) points).
    """
    idx = S.index
    for p in S.points:
        for v in idx:
            p[v]  # raises KeyError on arity mismatch
    rows = []
    for v in idx:
        rows.append(tuple(ext_inf([ext_sub(p[w], p[v]) for p in S.points])
                          for w in idx))
    return LConvexSet(S.scalar_kind, tuple(idx), tuple(rows))


def closure(c):
    """Tightest law-satisfying dbm with the same feasible set as c.

    Diagonal entries are first clamped to at most 0, then shortest-path
    relaxation runs to a fixpoint; indices on strictly negative cycles
    have their reachable bounds collapsed to -inf, and relaxation is
    repeated.  Always succeeds: infeasibility of finite points shows up
    as -inf entries, not as an error.
    """
    idx = list(c.index)
    n = len(idx)
    d = [[c.matrix[i][j].num for j in range(n)] for i in range(n)]
    for i in range(n):
        d[i][i] = min(d[i][i], 0)

    def relax():
        changed = True
        passes = 0
        while changed and passes <= n + 1:
            changed = False
            passes += 1
            for k in range(n):
                dk = d[k]
                for i in range(n):
                    dik = d[i][k]
                    row = d[i]
                    for j in range(n):
                        cand = nadd(dik, dk[j])
                        if cand < row[j]:
                            row[j] = cand
                            changed = True

    relax()
    while True:
        negative = [i for i in range(n) if d[i][i] < 0]
        changed = False
        for v in negative:
            for i in range(n):
                if d[i][v] == float("inf"):
                    continue
                for j in range(n):
                    if d[v][j] == float("inf"):
                        continue
                    if d[i][j] != float("-inf"):
                        d[i][j] = float("-inf")
                        changed = True
            if d[v][v] != float("-inf"):
                d[v][v] = float("-inf")
                changed = True
        if not changed:
            break
        relax()

    mk = int if c.scalar_kind == "int" else float
    rows = tuple(tuple(from_num(x if x in (float("inf"), float("-inf")) else mk(x))
                       for x in row) for row in d)
    return LConvexSet(c.scalar_kind, tuple(idx), rows)


def weight_shift(p, alpha, sign="plus"):
    """Add or subtract the constant vector alpha * 1 coordinatewise."""
    if sign == "plus":
        return PointVector({v: ext_add(x, alpha) for v, x in p.coords.items()})
    if sign == "minus":
        return PointVector({v: ext_sub(x, alpha) for v, x in p.coords.items()})
    raise ValueError("sign must be 'plus' or 'minus'")


def point_sup(points, index=None):
    """Coordinatewise sup (usual min); empty sup is the all-inf point."""
    return _pointwise(points, index, ext_sup)


def point_inf(points, index=None):
    """Coordinatewise inf (usual max); empty inf is the all-(-inf) point."""
    return _pointwise(points, index, ext_inf)


def _pointwise(points, index, op):
    points = list(points)
    if index is None:
        if not points:
            raise ValueError("an index is required for an empty point family")
        index = points[0].labels()
    for p in points:
        if set(p.labels()) != set(index):
            raise ValueError("points do not share the index")
    return PointVector({v: op([p[v] for p in points]) for v in index})


def canonical_points(D):
    """The rows of the dbm, each a member of D."""
    return [PointVector({w: D.bound(v, w) for w in D.index}) for v in D.index]


def grid_members(D, bound=3):
    """All members whose coordinates lie in {-inf} u [-bound, bound] u {inf}.

    Integer scalar kind only; points come out in lexicographic order of
    the coordinate tuples with -inf first and inf last.
    """
    if D.scalar_kind != "int":
        raise ValueError("grid enumeration needs the integer scalar kind")
    idx = D.index
    n = len(idx)
    dnum = [[D.bound(v, w).num for w in idx] for v in idx]
    values = [float("-inf")] + list(range(-bound, bound + 1)) + [float("inf")]
    out = []
    for pt in product(values, repeat=n):
        ok = True
        for i in range(n):
            pi = pt[i]
            row = dnum[i]
            for j in range(n):
                if row[j] < nsub(pt[j], pi):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(PointVector({v: from_num(x) for v, x in zip(idx, pt)}))
    return out


def murota_check(points, kind="lset"):
    """Toy-scale comparison predicate for classic L-convex point sets.

    Requires finite coordinates.  Checks nonemptiness, closure under
    binary coordinatewise min/max, and presence of the +-1 constant
    translations whenever the translated point stays inside the
    coordinate window spanned by the list.  Topological closedness for
    the polyhedral kind cannot be observed on a finite list and is left
    unchecked.
    """
    if kind not in ("lset", "lpoly"):
        raise ValueError("kind must be 'lset' or 'lpoly'")
    points = list(points)
    if not points:
        return False
    idx = points[0].labels()
    for p in points:
        for v in idx:
            if not p[v].is_fin:
                raise ValueError("infinite coordinate in explicit point list")
    seen = {tuple(p[v].value for v in idx) for p in points}
    lo = min(min(t) for t in seen)
    hi = max(max(t) for t in seen)
    for a in seen:
        for b in seen:
            if tuple(min(x, y) for x, y in zip(a, b)) not in seen:
                return False
            if tuple(max(x, y) for x, y in zip(a, b)) not in seen:
                return False
    for a in seen:
        for delta in (1, -1):
            shifted = tuple(x + delta for x in a)
            if all(lo <= x <= hi for x in shifted) and shifted not in seen:
                return False
    return True
