"""Taxonomy of two-point generalized metric spaces over kbar.

Every valid 2x2 distance matrix falls, up to swapping the two points,
into exactly one of ten families determined by the infinity pattern of
its entries.  The two "line and a point" families are not related by the
swap and stay distinct.
"""

from itertools import product

from .scalars import NEG_INF, POS_INF, format_scalar
from .lattices import get_lattice
from .categories import VCategory, validate_category, _Value
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


# the family of each infinity pattern of a canonical matrix, read row by
# row: '-' for -inf, '+' for inf, 'f' for a finite entry (a diagonal 0 too)
_FAMILY_OF_PATTERN = {
    "f++f": WHOLE_PLANE, "ff+f": HALF_PLANE, "ffff": BAND, "f-+f": ORTHOGONAL_LINES,
    "-++f": PARALLEL_LINES, "-+-f": LINE_AND_POINT_F, "--+f": LINE_AND_POINT_G,
    "-++-": FOUR_POINTS, "--+-": THREE_POINTS, "----": TWO_POINTS,
}


class TwoPointShape(_Value):
    """params: the canonical matrix's finite off-diagonal entries, in order;
    swapped: whether the swap was applied to reach the canonical form."""

    _fields = __slots__ = ("family", "params", "swapped")

    def __init__(self, family, params, swapped):
        self._set(family=family, params=params, swapped=swapped)

    def describe(self):
        out = self.family + "".join(
            " %s=%s" % (name, format_scalar(p)) for name, p in zip("st", self.params))
        return out + " (indices swapped)" if self.swapped else out


def classify_two_point(m, scalar_kind="int"):
    """Classify a 2x2 matrix; returns a TwoPointShape, or None if invalid."""
    cat = VCategory(get_lattice("kbar", scalar_kind), ("v", "w"), m)
    return None if validate_category(cat) else two_point_shape(cat.hom)


def two_point_shape(m):
    """The TwoPointShape of a 2x2 kbar matrix whose laws hold (not checked here).

    The swap symmetry is normalized toward the lexicographically smaller
    matrix (the swap reverses the entries read row by row); the shape
    records whether the swap was applied.  The family is the canonical
    matrix's infinity pattern, and the params are its finite off-diagonal
    entries.
    """
    flat = (*m[0], *m[1])
    swapped = flat[::-1] < flat
    canonical = flat[::-1] if swapped else flat
    pattern = "".join(["-" if x == NEG_INF else "+" if x == POS_INF else "f" for x in canonical])
    params = tuple(x for x in canonical[1:3] if NEG_INF < x < POS_INF)
    return TwoPointShape(_FAMILY_OF_PATTERN[pattern], params, swapped)


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
