"""Finite categories enriched in a poset lattice.

A category here is a finite list of object labels plus a square hom matrix
with values in an enriching lattice.  Over the kbar lattice this is a
generalized metric space: distances may be negative, infinite and
asymmetric, the triangle inequality is the composition law, and the
identity law says d(a,a) is 0 or -inf.

A functor is the tuple of codomain positions of its object images, in
domain order, and a presheaf the tuple of its values in base order; label
views are read off these tuples.
"""

from dataclasses import dataclass
from itertools import compress
from operator import eq

from .scalars import format_scalar
from .lattices import EnrichingLattice


@dataclass(frozen=True)
class VCategory:
    lattice: EnrichingLattice
    objects: tuple
    hom: tuple  # tuple of tuples of lattice values, hom[i][j] = Hom(objects[i], objects[j])

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("object labels must be distinct")
        n = len(self.objects)
        if len(self.hom) != n or any(len(row) != n for row in self.hom):
            raise ValueError("hom matrix shape does not match the object list")
        if not all(self.lattice.contains(x) for row in self.hom for x in row):
            raise ValueError("hom entry outside the %r carrier" % self.lattice)
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(self.objects)})

    def hom_at(self, a, b):
        return self.hom[self._pos[a]][self._pos[b]]

    def has_object(self, a):
        return a in self._pos


def make_category(lattice, objects, hom_rows):
    return VCategory(lattice, tuple(objects), tuple(tuple(row) for row in hom_rows))


def validate_category(C):
    """List of violated-law descriptions; empty iff C is a category."""
    L = C.lattice
    bad = []
    for a in C.objects:
        if not L.leq(L.unit, C.hom_at(a, a)):
            bad.append("identity law fails at %s: unit %s is not below hom %s"
                       % (a, format_scalar(L.unit), format_scalar(C.hom_at(a, a))))
    for a in C.objects:
        for b in C.objects:
            for c in C.objects:
                lhs = L.tensor(C.hom_at(a, b), C.hom_at(b, c))
                rhs = C.hom_at(a, c)
                if not L.leq(lhs, rhs):
                    bad.append(
                        "composition law fails at (%s, %s, %s): %s is not below %s"
                        % (a, b, c, format_scalar(lhs), format_scalar(rhs)))
    return bad


class InvalidCategory(ValueError):
    """A matrix that breaks the category laws; violations lists each broken law."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__("not a valid category: " + "; ".join(violations))


def require_category(*cats):
    """Raise InvalidCategory with the violations of each distinct argument, in argument order."""
    distinct = [C for k, C in enumerate(cats) if C not in cats[:k]]
    bad = [msg for C in distinct for msg in validate_category(C)]
    if bad:
        raise InvalidCategory(bad)


def opposite(C):
    """Transpose the hom matrix."""
    n = len(C.objects)
    return VCategory(C.lattice, C.objects,
                     tuple(tuple(C.hom[j][i] for j in range(n)) for i in range(n)))


_BAD_POSITIONS = "a functor needs one codomain index per domain object"


@dataclass(frozen=True, slots=True, init=False)
class VFunctor:
    domain: VCategory
    codomain: VCategory
    positions: tuple  # positions[i]: codomain index of the image of domain.objects[i]

    def __init__(self, domain, codomain, positions):
        # Written out, unlike the generated __init__ and __post_init__ that
        # VCategory, Presheaf and LConvexSet keep (a request builds O(1)-O(n)
        # of those): this runs on every search result.  The check is a plain
        # loop, not all() over a generator, and the fields go straight into
        # their slots, past the frozen __setattr__, instead of through three
        # object.__setattr__ calls and a __post_init__ call.
        n = len(codomain.objects)
        if len(positions) != len(domain.objects):
            raise ValueError(_BAD_POSITIONS)
        for j in positions:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(_BAD_POSITIONS)
        _set_domain(self, domain)
        _set_codomain(self, codomain)
        _set_positions(self, positions)

    @property
    def object_map(self):
        """Pairs (domain object, codomain object), in domain order."""
        return tuple(zip(self.domain.objects, (self.codomain.objects[j] for j in self.positions)))

    def __call__(self, a):
        return self.codomain.objects[self.positions[self.domain._pos[a]]]


_set_domain, _set_codomain, _set_positions = (
    VFunctor.__dict__[name].__set__ for name in ("domain", "codomain", "positions"))


def make_functor(domain, codomain, mapping):
    """The functor a |-> mapping[a], from a label mapping keyed by exactly the domain's objects."""
    for a in mapping:
        if not domain.has_object(a):
            raise ValueError("%r is not a domain object" % (a,))
    positions = []
    for a in domain.objects:
        if a not in mapping:
            raise ValueError("no image given for %r" % (a,))
        if not codomain.has_object(mapping[a]):
            raise ValueError("%r maps to %r, outside the codomain" % (a, mapping[a]))
        positions.append(codomain._pos[mapping[a]])
    return VFunctor(domain, codomain, tuple(positions))


def identity_functor(C):
    return VFunctor(C, C, tuple(range(len(C.objects))))


def _increasing(src, dst, rel, c):
    """rel(src[i][k], dst[c[i]][c[k]]) for all i, k; with the lattice order
    this is the increasing condition on the index map c."""
    return all(rel(s, dst[ci][ck]) for row, ci in zip(src, c) for s, ck in zip(row, c))


def _index_maps(src, dst, leq):
    """Every index map c that passes the increasing condition, lexicographic.

    Depth-first search with forward checking (Haralick & Elliott 1980) over
    bitmask domains (Ullmann 1976): objects are assigned in src order,
    values tried lowest bit first, and each assignment narrows every later
    object's domain with one AND to the values compatible with it both ways;
    an empty domain cuts the branch.  Once every object but the last is
    assigned, each value left in the last object's domain completes a map,
    so that level is emitted whole.  leq runs only to tabulate, once per
    distinct src value and dst entry: at most len(set(src values)) * |dst|^2
    calls.
    """
    n = len(src)
    if n == 0:
        yield ()
        return
    powers = [1 << y for y in range(len(dst))]
    rows, cols = {}, {}
    for s in {s for row in src for s in row}:
        ok = [[leq(s, d) for d in drow] for drow in dst]
        rows[s] = [sum(compress(powers, r)) for r in ok]
        cols[s] = [sum(compress(powers, col)) for col in zip(*ok)]
    # both[i][k][x]: the y with leq(src[i][k], dst[x][y]) and leq(src[k][i], dst[y][x])
    both = [[[r & col for r, col in zip(rows[src[i][k]], cols[src[k][i]])] for k in range(n)]
            for i in range(n)]
    # domains[i]: every object's domain after assigning objects 0..i-1; at
    # first, object i may take x iff leq(src[i][i], dst[x][x]), bit x of both[i][i][x]
    domains = [[sum(compress(powers, [b >> x & 1 for x, b in enumerate(both[i][i])]))
                for i in range(n)]]
    last = n - 1
    tails = {}  # a last-object domain mask -> its values as 1-tuples, lowest first

    def values(mask):
        t = tails.get(mask)
        if t is None:
            t = tails[mask] = tuple((y,) for y in range(mask.bit_length()) if mask >> y & 1)
        return t

    if last == 0:
        yield from values(domains[0][0])
        return
    c = [0] * last
    untried = [domains[0][0]]  # untried[i]: the values of object i not yet tried
    while untried:
        i = len(untried) - 1
        rest = untried[i]
        if not rest:
            untried.pop()
            domains.pop()
            continue
        low = rest & -rest
        untried[i] = rest ^ low
        c[i] = x = low.bit_length() - 1
        if i == last - 1:
            tail = domains[i][last] & both[i][last][x]
            if tail:
                yield from map(tuple(c).__add__, values(tail))
            continue
        narrowed, step = domains[i][:], both[i]
        for k in range(i + 1, n):
            narrowed[k] &= step[k][x]
            if not narrowed[k]:
                break
        else:
            domains.append(narrowed)
            untried.append(narrowed[i + 1])


def is_functor(F):
    """The increasing condition: hom(a,a') below hom(F a, F a')."""
    return _increasing(F.domain.hom, F.codomain.hom, F.domain.lattice.leq, F.positions)


def is_fully_faithful(F):
    return _increasing(F.domain.hom, F.codomain.hom, eq, F.positions)


def is_isomorphism(F):
    n = len(F.domain.objects)
    return is_fully_faithful(F) and len(set(F.positions)) == n == len(F.codomain.objects)


def compose_functors(G, F):
    """G after F."""
    if F.codomain is not G.domain and F.codomain != G.domain:
        raise ValueError("codomain of the inner functor must be the outer domain")
    return VFunctor(F.domain, G.codomain, tuple(G.positions[j] for j in F.positions))


def functor_hom(F, G):
    """Hom-value between parallel functors: inf over a of hom(F a, G a)."""
    _check_parallel(F, G)
    B = F.codomain
    return B.lattice.inf([B.hom[i][j] for i, j in zip(F.positions, G.positions)])


def canonical_leq(F, G):
    """F below G iff unit is below the hom-value, i.e. below hom(F a, G a) for every a."""
    L = F.codomain.lattice
    return L.leq(L.unit, functor_hom(F, G))


def _check_parallel(F, G):
    if F.domain != G.domain or F.codomain != G.codomain:
        raise ValueError("functors are not parallel")


def enumerate_functors(A, B):
    """All functors A -> B, lexicographic in B's object order."""
    return [VFunctor(A, B, c) for c in _index_maps(A.hom, B.hom, A.lattice.leq)]


def residuals(L, rows):
    """R[i][j] = inf over c of hom_L(rows[i][c], rows[j][c]), the presheaf
    distance between rows i and j.  By the enriched Yoneda lemma a square
    matrix M is the hom of a category iff residuals(L, M) is its transpose.
    """
    hom, inf = L.hom, L.inf
    return tuple(tuple(inf(map(hom, r, s)) for s in rows) for r in rows)


def self_enrichment(L, carrier):
    """The lattice as a category over itself: hom is the internal hom."""
    carrier = list(carrier)
    labels = tuple(format_scalar(x) for x in carrier)
    if len(set(labels)) != len(labels):
        raise ValueError("carrier values must be distinct")
    hom = tuple(tuple(L.hom(x, y) for y in carrier) for x in carrier)
    return VCategory(L, labels, hom)


@dataclass(frozen=True)
class Presheaf:
    base: VCategory
    values: tuple  # values[i]: the lattice value at base.objects[i]

    def __post_init__(self):
        if len(self.values) != len(self.base.objects):
            raise ValueError("a presheaf needs one value per base object")
        if not all(self.base.lattice.contains(x) for x in self.values):
            raise ValueError("presheaf value outside the %r carrier" % self.base.lattice)

    def __call__(self, a):
        return self.values[self.base._pos[a]]


def make_presheaf(base, mapping):
    return Presheaf(base, tuple(mapping[a] for a in base.objects))


def is_presheaf(p):
    """Contravariant nonexpansiveness: hom(a,b) below hom_L(p(b), p(a))."""
    L, v = p.base.lattice, p.values
    return all(L.leq(h, L.hom(vb, va)) for row, va in zip(p.base.hom, v) for h, vb in zip(row, v))


def presheaf_dist(p1, p2):
    """Hom-value between presheaves: inf over a of hom_L(p1(a), p2(a))."""
    if p1.base != p2.base:
        raise ValueError("presheaves live over different bases")
    return residuals(p1.base.lattice, (p1.values, p2.values))[0][1]


def yoneda(C, b):
    """The representable presheaf a |-> hom(a, b): column b of the matrix."""
    j = C._pos[b]
    return Presheaf(C, tuple(row[j] for row in C.hom))


def co_yoneda(C, a):
    """The corepresentable b |-> hom(a, b), row a, packaged over the opposite base."""
    return Presheaf(opposite(C), C.hom[C._pos[a]])


def verify_yoneda(C):
    """Both embeddings are isometries: the distances between the columns
    (C's representables) are the hom values, residuals(L, C^T) == C.hom.

    That one comparison also decides the rows (the opposite's
    representables), residuals(L, C.hom) == C^T.  By the enriched Yoneda
    lemma residuals(L, M) == M^T iff M is a category, and tensor is
    commutative in every lattice here, so C is a category iff C^T is.
    """
    return residuals(C.lattice, tuple(zip(*C.hom))) == C.hom
