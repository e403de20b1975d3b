"""Taxonomy of two-point generalized metric spaces over kbar.

Every valid 2x2 distance matrix falls, up to swapping the two points,
into exactly one of ten families determined by the infinity pattern of
its entries.  The two "line and a point" families are not related by the
swap and stay distinct.
"""

from dataclasses import dataclass
from itertools import product

from .scalars import NEG_INF, POS_INF, format_scalar
from .lattices import get_lattice
from .categories import VCategory, validate_category
from .lconvex import grid_members

WHOLE_PLANE = "WholePlane"
HALF_PLANE = "HalfPlane"
BAND = "Band"
ORTHOGONAL_LINES = "OrthogonalLines"
PARALLEL_LINES = "ParallelLines"
LINE_AND_POINT_F = "LineAndPointF"
LINE_AND_POINT_G = "LineAndPointG"
FOUR_POINTS = "FourPoints"
THREE_POINTS = "ThreePoints"
TWO_POINTS = "TwoPoints"

FAMILIES = (
    WHOLE_PLANE, HALF_PLANE, BAND, ORTHOGONAL_LINES, PARALLEL_LINES,
    LINE_AND_POINT_F, LINE_AND_POINT_G, FOUR_POINTS, THREE_POINTS, TWO_POINTS,
)


@dataclass(frozen=True)
class TwoPointShape:
    family: str
    params: tuple  # () except: (s,) for HalfPlane, (s, t) for Band
    swapped: bool  # whether the swap was applied to reach the canonical form

    def describe(self):
        out = self.family
        if self.family == HALF_PLANE:
            out += " s=%s" % format_scalar(self.params[0])
        elif self.family == BAND:
            out += " s=%s t=%s" % tuple(format_scalar(p) for p in self.params)
        if self.swapped:
            out += " (indices swapped)"
        return out


def _swap(m):
    return ((m[1][1], m[1][0]), (m[0][1], m[0][0]))


def _flat(m):
    return (m[0][0], m[0][1], m[1][0], m[1][1])


def classify_two_point(m, scalar_kind="int"):
    """Classify a 2x2 matrix; returns a TwoPointShape, or None if invalid."""
    if len(m) != 2 or any(len(r) != 2 for r in m):
        raise ValueError("expected a 2x2 matrix")
    cat = VCategory(get_lattice("kbar", scalar_kind), ("v", "w"), m)
    return None if validate_category(cat) else two_point_shape(cat.hom)


def two_point_shape(m):
    """The TwoPointShape of a 2x2 kbar matrix whose laws hold (not checked here).

    The swap symmetry is normalized toward the lexicographically smaller
    matrix; the shape records whether the swap was applied.
    """
    swapped_m = _swap(m)
    if _flat(swapped_m) < _flat(m):
        canonical, swapped = swapped_m, True
    else:
        canonical, swapped = m, False
    d00, d01, d10, d11 = _flat(canonical)

    if d00 == 0 and d11 == 0:
        if d01 == POS_INF and d10 == POS_INF:
            return TwoPointShape(WHOLE_PLANE, (), swapped)
        if d01 == NEG_INF or d10 == NEG_INF:
            return TwoPointShape(ORTHOGONAL_LINES, (), swapped)
        if d01 == POS_INF or d10 == POS_INF:
            s = d01 if d01 != POS_INF else d10
            return TwoPointShape(HALF_PLANE, (s,), swapped)
        return TwoPointShape(BAND, (d01, d10), swapped)
    diag = sorted((d00, d11))
    if diag == [NEG_INF, 0]:
        # -inf sorts below 0, so the canonical form puts the -inf point
        # first: a runs from the 0-point to it, b back
        a, b = d10, d01
        if a == POS_INF and b == POS_INF:
            return TwoPointShape(PARALLEL_LINES, (), swapped)
        if a == NEG_INF:
            return TwoPointShape(LINE_AND_POINT_F, (), swapped)
        return TwoPointShape(LINE_AND_POINT_G, (), swapped)
    # both diagonals -inf
    if d01 == POS_INF and d10 == POS_INF:
        return TwoPointShape(FOUR_POINTS, (), swapped)
    if d01 == NEG_INF and d10 == NEG_INF:
        return TwoPointShape(TWO_POINTS, (), swapped)
    return TwoPointShape(THREE_POINTS, (), swapped)


def exhaustive_partition(grid_bound=2):
    """Classify every 2x2 matrix over the grid and tabulate the families.

    Returns a report dict with the grid bound, the number of matrices, the
    per-family counts and the number of invalid (unclassified) matrices.
    """
    values = get_lattice("kbar").carrier_grid(grid_bound)
    counts = {f: 0 for f in FAMILIES}
    invalid = 0
    for cells in product(values, repeat=4):
        shape = classify_two_point((cells[:2], cells[2:]))
        if shape is not None:
            counts[shape.family] += 1
        else:
            invalid += 1
    return {"bound": grid_bound, "total": len(values) ** 4, "invalid": invalid, "counts": counts}


def render_region(D, bound=3):
    """Text picture of a two-index set over the coordinate grid.

    Rows run from the second coordinate high to low, columns from the
    first coordinate low to high; members are '#' (finite cells) or '*'
    (cells in an infinite border row/column), non-members '.'.
    """
    if len(D.index) != 2:
        raise ValueError("rendering needs exactly two indices")
    members = set(grid_members(D, bound))
    axis = get_lattice("kbar").carrier_grid(bound)
    border = (NEG_INF, POS_INF)
    lines = ["bound=%d index=%s" % (bound, ",".join(D.index))]
    for y in reversed(axis):
        row = []
        for x in axis:
            if (x, y) in members:
                row.append("*" if x in border or y in border else "#")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines)
