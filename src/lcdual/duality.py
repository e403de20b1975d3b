"""The correspondence between generalized metric spaces and L-convex sets.

Objects: a category over kbar becomes an L-convex set whose index is the
object list and whose bounds are the distances; an L-convex set becomes a
category on relabeled points pi_v with the same matrix.  The round trips
are identities up to these relabelings.

Maps: a functor A -> B induces a homomorphism [B] -> [A] whose index map
is the functor's object map, and conversely; directions reverse.  The
canonical orderings transfer along the same correspondence.
"""

from dataclasses import dataclass

from .categories import (
    VCategory, VFunctor, make_functor, validate_category, is_functor, canonical_leq,
    _index_maps,
)
from .lconvex import LConvexSet, PointVector, grid_members

PI_PREFIX = "pi_"


@dataclass(frozen=True)
class Homomorphism:
    domain: LConvexSet
    codomain: LConvexSet
    index_map: tuple  # pairs (codomain index label, domain index label)

    def __post_init__(self):
        if tuple(w for w, _ in self.index_map) != self.codomain.index:
            raise ValueError("index_map must cover the codomain index in order")
        mapping = dict(self.index_map)
        for _, v in mapping.items():
            if not self.domain.has_object(v):
                raise ValueError("index_map hits a label outside the domain index")
        object.__setattr__(self, "_map", mapping)

    def __call__(self, w):
        return self._map[w]


def make_homomorphism(D, E, mapping):
    """Build from a mapping ind E -> ind D (note the reversal)."""
    return Homomorphism(D, E, tuple((w, mapping[w]) for w in E.index))


def pullback(phi, p):
    """The underlying point map: precompose coordinates with the index map."""
    return PointVector({w: p[phi(w)] for w in phi.codomain.index})


@dataclass(frozen=True)
class DualityWitness:
    """The explicit relabelings that witness the round-trip isomorphisms."""
    relabel: tuple  # pairs (original label, pi-label)


def _require_valid_category(A):
    bad = validate_category(A)
    if bad:
        raise ValueError("not a valid category: " + "; ".join(bad))
    if A.lattice.name != "kbar":
        raise ValueError("duality needs a category over kbar")


def cat_to_lcs(A):
    """Members of the result are exactly the nonexpansive maps A -> kbar."""
    _require_valid_category(A)
    return LConvexSet(A.lattice.scalar_kind, A.objects, A.hom)


def lcs_to_cat(D):
    """Points pi_v with distance d(pi_v, pi_w) = dbm[v][w].

    That distance equals the largest difference p(w) - p(v) over members
    p, so this is the full subcategory of the member space on the
    canonical points.
    """
    _require_valid_category(D)
    return VCategory(D.lattice, tuple(PI_PREFIX + v for v in D.index), D.dbm)


def unit_witness(A):
    return DualityWitness(tuple((a, PI_PREFIX + a) for a in A.objects))


def counit_witness(D):
    return DualityWitness(tuple((v, PI_PREFIX + v) for v in D.index))


def roundtrip_cat(A):
    """Exact matrix equality after the a |-> pi_a relabeling."""
    B = lcs_to_cat(cat_to_lcs(A))
    expected = tuple(PI_PREFIX + a for a in A.objects)
    return B.objects == expected and B.hom == A.hom


def roundtrip_lcs(D, bound=None):
    """Index bijection v |-> pi_v plus matrix equality.

    With a bound (integer kind only) grid membership of the two sets is
    compared point for point after relabeling.
    """
    E = cat_to_lcs(lcs_to_cat(D))
    expected = tuple(PI_PREFIX + v for v in D.index)
    if E.index != expected or E.dbm != D.dbm:
        return False
    if bound is not None:
        relabel = dict(zip(D.index, E.index))
        mem_d = {tuple((relabel[v], p[v]) for v in D.index)
                 for p in grid_members(D, bound)}
        mem_e = {tuple((w, p[w]) for w in E.index)
                 for p in grid_members(E, bound)}
        if mem_d != mem_e:
            return False
    return True


def _as_functor(phi):
    """phi : D -> E read as the functor [E] -> [D] with the same index map."""
    return VFunctor(phi.codomain, phi.domain, phi.index_map)


def is_homomorphism(f, D=None, E=None):
    """Matrix test: every codomain bound dominates the pulled-back bound.

    This is the functor check on the transposed pair: the increasing
    condition for the same index map from E's matrix to D's under the kbar
    order.  Equivalent to the defining condition that the pullback carries
    every member of the domain to a member of the codomain.
    """
    phi = f if isinstance(f, Homomorphism) else make_homomorphism(D, E, dict(f))
    return is_functor(_as_functor(phi))


def functor_to_hom(F):
    """A functor A -> B as a homomorphism [B] -> [A] (same underlying map)."""
    D = cat_to_lcs(F.codomain)
    E = cat_to_lcs(F.domain)
    phi = make_homomorphism(D, E, {a: F(a) for a in F.domain.objects})
    if not is_homomorphism(phi):
        raise ValueError("functor does not satisfy the increasing condition")
    return phi


def hom_to_functor(phi):
    """A homomorphism D -> E as a functor on points, pi_w |-> pi_f(w)."""
    A = lcs_to_cat(phi.codomain)
    B = lcs_to_cat(phi.domain)
    F = make_functor(A, B, {PI_PREFIX + w: PI_PREFIX + phi(w)
                            for w in phi.codomain.index})
    return F


def hom_canonical_leq(phi, psi):
    """Canonical ordering, decided by the finite matrix test.

    phi below psi iff pulling back along phi gives the pointwise larger
    map; that holds exactly when 0 >= dbm_D[f(w)][g(w)] for every w, the
    canonical ordering of the corresponding functors [E] -> [D].
    """
    if phi.domain != psi.domain or phi.codomain != psi.codomain:
        raise ValueError("homomorphisms are not parallel")
    return canonical_leq(_as_functor(phi), _as_functor(psi))


def hom_leq_pointwise(phi, psi, bound=3):
    """Oracle form of the ordering: compare pullbacks on every grid member."""
    D = phi.domain
    for p in grid_members(D, bound):
        fp, gp = pullback(phi, p), pullback(psi, p)
        for w in phi.codomain.index:
            if not fp[w].num >= gp[w].num:
                return False
    return True


def enumerate_homs(D, E):
    """All homomorphisms D -> E, lexicographic in D's index order.

    These are the functors [E] -> [D]: the same search on the transposed pair.
    """
    return [Homomorphism(D, E, tuple(zip(E.index, (D.index[j] for j in c))))
            for c in _index_maps(E.dbm, D.dbm, D.lattice.leq)]
