"""Generalized metric spaces over extended scalars, L-convex sets in
difference-bound form, and the duality between them."""

from .scalars import (
    NEG_INF, POS_INF, TRUE, FALSE, fin,
    ext_add, ext_sub,
    parse_scalar, format_scalar,
)
from .lattices import EnrichingLattice, get_lattice, law_violations
from .categories import (
    VCategory, VFunctor, Presheaf, InvalidCategory, require_category,
    make_functor, make_presheaf, identity_functor,
    validate_category, opposite, is_functor, is_fully_faithful, is_isomorphism,
    compose_functors, functor_hom, canonical_leq, enumerate_functors,
    self_enrichment, is_presheaf, presheaf_dist, yoneda, co_yoneda, verify_yoneda,
)
from .lconvex import (
    LConvexSet, GeneratorSet,
    make_lcs, validate_lcs, member, from_generators, closure, weight_shift,
    point_sup, point_inf, canonical_points, grid_members,
)
from .duality import (
    make_homomorphism, pullback,
    cat_to_lcs, lcs_to_cat, roundtrip_cat, roundtrip_lcs,
    is_homomorphism, functor_to_hom, hom_to_functor,
    hom_canonical_leq, enumerate_homs,
)
from .classify import (
    TwoPointShape, FAMILIES, classify_two_point, exhaustive_partition,
    render_region,
)
