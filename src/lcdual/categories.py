"""Finite categories enriched in a poset lattice.

A category here is a finite list of object labels plus a square hom matrix
with values in an enriching lattice.  Over the kbar lattice this is a
generalized metric space: distances may be negative, infinite and
asymmetric, the triangle inequality is the composition law, and the
identity law says d(a,a) is 0 or -inf.
"""

from dataclasses import dataclass

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


def opposite(C):
    """Transpose the hom matrix."""
    n = len(C.objects)
    return VCategory(C.lattice, C.objects,
                     tuple(tuple(C.hom[j][i] for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class VFunctor:
    domain: VCategory
    codomain: VCategory
    object_map: tuple  # pairs (domain object, codomain object), in domain order

    def __post_init__(self):
        mapping = dict(self.object_map)
        if tuple(a for a, _ in self.object_map) != self.domain.objects:
            raise ValueError("object_map must cover the domain objects in order")
        for _, b in self.object_map:
            if not self.codomain.has_object(b):
                raise ValueError("object_map hits a label outside the codomain")
        object.__setattr__(self, "_map", mapping)

    def __call__(self, a):
        return self._map[a]


def make_functor(domain, codomain, mapping):
    return VFunctor(domain, codomain, tuple((a, mapping[a]) for a in domain.objects))


def identity_functor(C):
    return make_functor(C, C, {a: a for a in C.objects})


def _increasing(src, dst, leq, c):
    """The increasing condition on an index map c: src[i][k] below dst[c[i]][c[k]]."""
    return all(leq(s, dst[ci][ck]) for row, ci in zip(src, c) for s, ck in zip(row, c))


def _index_maps(src, dst, leq):
    """Every index map c that passes the increasing condition, lexicographic.

    Depth-first search with forward checking (Haralick & Elliott 1980):
    objects are assigned in src order, values tried in dst order, and each
    assignment narrows every later object's domain to the values compatible
    with it both ways; an empty domain cuts the branch.  leq runs only to fill
    ok[i][k][x][y] = leq(src[i][k], dst[x][y]), |src|^2 |dst|^2 times.
    """
    ok = [[[[leq(s, d) for d in drow] for drow in dst] for s in row] for row in src]

    def extend(c, domains):
        if not domains:
            yield c
            return
        i, later = len(c), domains[1:]
        for x in domains[0]:
            narrowed = []
            for k, dom in enumerate(later, i + 1):
                fwd, back = ok[i][k][x], ok[k][i]
                dom = [y for y in dom if fwd[y] and back[y][x]]
                if not dom:
                    break
                narrowed.append(dom)
            else:
                yield from extend(c + (x,), narrowed)

    yield from extend((), [[x for x in range(len(dst)) if ok[i][i][x][x]]
                           for i in range(len(src))])


def is_functor(F):
    """The increasing condition: hom(a,a') below hom(F a, F a')."""
    A, B = F.domain, F.codomain
    return _increasing(A.hom, B.hom, A.lattice.leq, tuple(B._pos[F(a)] for a in A.objects))


def is_fully_faithful(F):
    A, B = F.domain, F.codomain
    return all(A.hom_at(a, a2) == B.hom_at(F(a), F(a2))
               for a in A.objects for a2 in A.objects)


def is_isomorphism(F):
    A, B = F.domain, F.codomain
    image = {F(a) for a in A.objects}
    return is_fully_faithful(F) and len(image) == len(A.objects) == len(B.objects)


def compose_functors(G, F):
    """G after F."""
    if F.codomain is not G.domain and F.codomain != G.domain:
        raise ValueError("codomain of the inner functor must be the outer domain")
    return make_functor(F.domain, G.codomain, {a: G(F(a)) for a in F.domain.objects})


def functor_hom(F, G):
    """Hom-value between parallel functors: inf over a of hom(F a, G a)."""
    _check_parallel(F, G)
    L = F.codomain.lattice
    return L.inf([F.codomain.hom_at(F(a), G(a)) for a in F.domain.objects])


def canonical_leq(F, G):
    """F below G iff unit is below the hom-value, i.e. below hom(F a, G a) for every a."""
    L = F.codomain.lattice
    return L.leq(L.unit, functor_hom(F, G))


def _check_parallel(F, G):
    if F.domain != G.domain or F.codomain != G.codomain:
        raise ValueError("functors are not parallel")


def enumerate_functors(A, B):
    """All functors A -> B, lexicographic in B's object order."""
    return [VFunctor(A, B, tuple(zip(A.objects, (B.objects[j] for j in c))))
            for c in _index_maps(A.hom, B.hom, A.lattice.leq)]


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
    values: tuple  # pairs (object, lattice value) in base order

    def __post_init__(self):
        if tuple(a for a, _ in self.values) != self.base.objects:
            raise ValueError("presheaf values must cover the base objects in order")
        object.__setattr__(self, "_map", dict(self.values))

    def __call__(self, a):
        return self._map[a]


def make_presheaf(base, mapping):
    return Presheaf(base, tuple((a, mapping[a]) for a in base.objects))


def is_presheaf(p):
    """Contravariant nonexpansiveness: hom(a,b) below hom_L(p(b), p(a))."""
    C, L = p.base, p.base.lattice
    return all(L.leq(C.hom_at(a, b), L.hom(p(b), p(a)))
               for a in C.objects for b in C.objects)


def presheaf_dist(p1, p2):
    """Hom-value between presheaves: inf over a of hom_L(p1(a), p2(a))."""
    if p1.base != p2.base:
        raise ValueError("presheaves live over different bases")
    L = p1.base.lattice
    return L.inf([L.hom(p1(a), p2(a)) for a in p1.base.objects])


def yoneda(C, b):
    """The representable presheaf a |-> hom(a, b)."""
    return make_presheaf(C, {a: C.hom_at(a, b) for a in C.objects})


def co_yoneda(C, a):
    """The corepresentable b |-> hom(a, b), packaged over the opposite base."""
    Cop = opposite(C)
    return make_presheaf(Cop, {b: C.hom_at(a, b) for b in C.objects})


def verify_yoneda(C):
    """Both embeddings are isometries: hom values equal presheaf distances.

    Checks hom(b,b') = inf_a hom_L(hom(a,b), hom(a,b')) and the dual
    hom(a,a') = inf_b hom_L(hom(a',b), hom(a,b)) for every pair.
    """
    L = C.lattice
    for b in C.objects:
        for b2 in C.objects:
            expected = C.hom_at(b, b2)
            got = L.inf([L.hom(C.hom_at(a, b), C.hom_at(a, b2)) for a in C.objects])
            if got != expected:
                return False
    for a in C.objects:
        for a2 in C.objects:
            expected = C.hom_at(a, a2)
            got = L.inf([L.hom(C.hom_at(a2, b), C.hom_at(a, b)) for b in C.objects])
            if got != expected:
                return False
    return True
