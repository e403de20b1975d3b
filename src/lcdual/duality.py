"""The correspondence between generalized metric spaces and L-convex sets.

Objects: a category over kbar becomes an L-convex set whose index is the
object list and whose bounds are the distances; an L-convex set becomes a
category on relabeled points pi_v with the same matrix.  The round trips
are identities up to these relabelings.

Maps: a homomorphism D -> E is the functor [E] -> [D] with the same index
map, and is represented by that functor: its domain is E, its codomain is
D, its positions hold one position in D's index per index of E, in E's
index order, and its object_map pairs each index of E with its image in
D.  A functor A -> B is a homomorphism [B] -> [A] with the same positions;
directions reverse.  The canonical orderings transfer along the same
correspondence.
"""

from .categories import (
    VCategory, VFunctor, make_functor, require_category, is_functor, canonical_leq,
    enumerate_functors,
)
from .lconvex import LConvexSet

PI_PREFIX = "pi_"


def make_homomorphism(D, E, mapping):
    """The homomorphism D -> E from a mapping ind E -> ind D (note the reversal)."""
    return make_functor(E, D, mapping)


def pullback(phi, p):
    """The underlying point map: precompose coordinates with phi's positions."""
    return tuple(p[j] for j in phi.positions)


def _require_valid_category(A):
    require_category(A)
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


def roundtrip_cat(A):
    """Exact matrix equality after the a |-> pi_a relabeling."""
    B = lcs_to_cat(cat_to_lcs(A))
    expected = tuple(PI_PREFIX + a for a in A.objects)
    return B.objects == expected and B.hom == A.hom


def roundtrip_lcs(D):
    """Index bijection v |-> pi_v plus matrix equality.

    Members depend only on the scalar kind and the matrix, so this is also
    equality of the member sets.
    """
    E = cat_to_lcs(lcs_to_cat(D))
    return E.index == tuple(PI_PREFIX + v for v in D.index) and E.dbm == D.dbm


def is_homomorphism(phi):
    """Matrix test for phi: D -> E: every bound of E dominates the pulled-back bound of D.

    This is the functor check on the transposed pair: the increasing
    condition for the same index map from E's matrix to D's under the kbar
    order.  Equivalent to the defining condition that the pullback carries
    every member of D to a member of E.
    """
    return is_functor(phi)


def functor_to_hom(F):
    """A functor A -> B as a homomorphism [B] -> [A] (same underlying map)."""
    phi = VFunctor(cat_to_lcs(F.domain), cat_to_lcs(F.codomain), F.positions)
    if not is_homomorphism(phi):
        raise ValueError("functor does not satisfy the increasing condition")
    return phi


def hom_to_functor(phi):
    """A homomorphism D -> E as a functor on points, pi_w |-> pi_f(w)."""
    return VFunctor(lcs_to_cat(phi.domain), lcs_to_cat(phi.codomain), phi.positions)


def hom_canonical_leq(phi, psi):
    """Canonical ordering, decided by the finite matrix test.

    phi below psi iff pulling back along phi gives the pointwise larger
    map; that holds exactly when 0 >= dbm_D[f(w)][g(w)] for every w, the
    canonical ordering of the corresponding functors [E] -> [D].
    """
    return canonical_leq(phi, psi)


def enumerate_homs(D, E):
    """All homomorphisms D -> E, lexicographic in D's index order.

    These are the functors [E] -> [D]: the same search on the transposed pair.
    """
    return enumerate_functors(E, D)
