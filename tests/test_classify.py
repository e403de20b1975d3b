import random
from decimal import Decimal
from itertools import product

import pytest

from lcdual.scalars import fin
from lcdual.classify import (
    FAMILIES, _FAMILY_OF_PATTERN, classify_two_point, exhaustive_partition, render_region,
    WHOLE_PLANE, HALF_PLANE, BAND, ORTHOGONAL_LINES, PARALLEL_LINES,
    LINE_AND_POINT_F, LINE_AND_POINT_G, FOUR_POINTS, THREE_POINTS, TWO_POINTS,
)
from lcdual.duality import cat_to_lcs, lcs_to_cat
from lcdual.lconvex import grid_members

from conftest import kcat, INF, NINF


FAMILY_MATRICES = {
    WHOLE_PLANE: [[0, INF], [INF, 0]],
    HALF_PLANE: [[0, 1], [INF, 0]],
    BAND: [[0, 1], [2, 0]],
    ORTHOGONAL_LINES: [[0, NINF], [INF, 0]],
    PARALLEL_LINES: [[0, INF], [INF, NINF]],
    LINE_AND_POINT_F: [[0, NINF], [INF, NINF]],
    LINE_AND_POINT_G: [[0, INF], [NINF, NINF]],
    FOUR_POINTS: [[NINF, INF], [INF, NINF]],
    THREE_POINTS: [[NINF, NINF], [INF, NINF]],
    TWO_POINTS: [[NINF, NINF], [NINF, NINF]],
}


def m(rows):
    return kcat(rows).hom


def test_each_family_matrix_classified():
    for family, rows in FAMILY_MATRICES.items():
        shape = classify_two_point(m(rows))
        assert shape is not None and shape.family == family, family


def test_band_and_halfplane_params():
    shape = classify_two_point(m([[0, 1], [2, 0]]))
    assert shape.family == BAND and shape.params == (fin(1), fin(2))
    shape = classify_two_point(m([[0, 2], [1, 0]]))
    assert shape.family == BAND and shape.params == (fin(1), fin(2)) and shape.swapped
    shape = classify_two_point(m([[0, INF], [-2, 0]]))
    assert shape.family == HALF_PLANE and shape.params == (fin(-2),)


def test_describe():
    assert classify_two_point(m([[0, -2], [INF, 0]])).describe() == "HalfPlane s=-2"
    assert (classify_two_point(m([[0, INF], [-2, 0]])).describe()
            == "HalfPlane s=-2 (indices swapped)")
    assert classify_two_point(m([[0, 2], [1, 0]])).describe() == "Band s=1 t=2 (indices swapped)"


def test_swap_invariance():
    for family, rows in FAMILY_MATRICES.items():
        swapped = [[rows[1][1], rows[1][0]], [rows[0][1], rows[0][0]]]
        s1 = classify_two_point(m(rows))
        s2 = classify_two_point(m(swapped))
        assert s1.family == s2.family == family


def test_line_and_point_families_distinct():
    f = classify_two_point(m(FAMILY_MATRICES[LINE_AND_POINT_F]))
    g = classify_two_point(m(FAMILY_MATRICES[LINE_AND_POINT_G]))
    assert f.family != g.family


def test_invalid_matrices():
    assert classify_two_point(m([[0, 1], [-2, 0]])) is None
    assert classify_two_point(m([[1, INF], [INF, 0]])) is None
    with pytest.raises(ValueError, match="^hom matrix shape does not match the object list$"):
        classify_two_point(m([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))


def test_classification_stable_under_duality_roundtrip():
    rng = random.Random(43)
    values = [NINF, -2, -1, 0, 1, 2, INF]
    for _ in range(200):
        rows = [[rng.choice(values), rng.choice(values)],
                [rng.choice(values), rng.choice(values)]]
        shape = classify_two_point(m(rows))
        if shape is None:
            continue
        round_hom = lcs_to_cat(cat_to_lcs(kcat(rows))).hom
        assert classify_two_point(round_hom).family == shape.family


def plain_add(x, y):
    """Extended x + y on plain numbers, from the tables: inf absorbs, then -inf."""
    if INF in (x, y):
        return INF
    if NINF in (x, y):
        return NINF
    return x + y


def plain_law_ok(rows):
    """The category laws over kbar on plain numbers, independent of the library:
    every diagonal entry is at most 0 and d(a, c) <= d(a, b) + d(b, c)."""
    n = len(rows)
    return (all(rows[a][a] <= 0 for a in range(n))
            and all(rows[a][c] <= plain_add(rows[a][b], rows[b][c])
                    for a in range(n) for b in range(n) for c in range(n)))


GRID2 = [NINF, -2, -1, 0, 1, 2, INF]


def grid_disagreements():
    """The 2x2 matrices over GRID2 that classify_two_point classifies exactly
    when plain_law_ok rejects them, and the number plain_law_ok accepts."""
    bad, valid = [], 0
    for cells in product(GRID2, repeat=4):
        rows = (cells[:2], cells[2:])
        ok = plain_law_ok(rows)
        valid += ok
        if ok != (classify_two_point(rows) is not None):
            bad.append(rows)
    return bad, valid


def test_plain_law_check_examples():
    assert plain_law_ok([[0, 1], [2, 0]]) and plain_law_ok([[NINF, NINF], [INF, 0]])
    assert plain_law_ok([[0, INF], [NINF, 0]])  # inf + -inf is inf
    assert not plain_law_ok([[0, 1], [-2, 0]])  # 1 + (-2) < 0 = d(a, a)
    assert not plain_law_ok([[1, INF], [INF, 0]])  # diagonal above 0
    assert not plain_law_ok([[0, NINF], [NINF, 0]])  # -inf + -inf < 0 = d(a, a)


def test_exhaustive_partition():
    report = exhaustive_partition(2)
    bad, valid = grid_disagreements()
    assert bad == []
    assert report["total"] == len(GRID2) ** 4
    assert report["invalid"] == report["total"] - valid
    assert sum(report["counts"].values()) == valid
    assert all(report["counts"][f] > 0 for f in report["counts"])
    # determinism
    assert exhaustive_partition(2) == report


def pattern(xs):
    """xs written as a pattern: '+' for inf, '-' for -inf, 'f' for a finite value."""
    return "".join("+" if x == INF else "-" if x == NINF else "f" for x in xs)


def member_patterns(rows, bound):
    """The grid members at this bound, each written as a pattern."""
    return {pattern(p) for p in grid_members(cat_to_lcs(kcat(rows)), bound)}


def swap_key(patterns):
    """A pattern set, up to swapping the two coordinates."""
    return min(tuple(sorted(patterns)), tuple(sorted(p[::-1] for p in patterns)))


# each family's member patterns in its canonical orientation
FAMILY_PATTERNS = {
    WHOLE_PLANE: {a + b for a in "+-f" for b in "+-f"},
    HALF_PLANE: {"++", "+-", "+f", "--", "f-", "ff"},
    BAND: {"++", "--", "ff"},
    ORTHOGONAL_LINES: {"++", "+-", "+f", "--", "f-"},
    PARALLEL_LINES: {"++", "+-", "+f", "-+", "--", "-f"},
    LINE_AND_POINT_F: {"++", "-+", "--", "-f"},
    LINE_AND_POINT_G: {"++", "+-", "+f", "--"},
    FOUR_POINTS: {"++", "+-", "-+", "--"},
    THREE_POINTS: {"++", "+-", "--"},
    TWO_POINTS: {"++", "--"},
}


@pytest.mark.parametrize("bound", [2, 3])
def test_member_patterns_determine_the_family(bound):
    # the set-level oracle: a family is its members' shape, read off grid_members
    # at bound + 1 (room for every finite bound of the matrix to be attained)
    grid = [NINF] + list(range(-bound, bound + 1)) + [INF]
    family_of, key_of, params, canonical_patterns = {}, {}, 0, set()
    for cells in product(grid, repeat=4):
        rows = (cells[:2], cells[2:])
        shape = classify_two_point(m(rows))
        if shape is None:
            continue
        canonical_patterns.add(pattern(cells[::-1] if shape.swapped else cells))
        # the real kind through the 10x image: same family and swap, params / 10
        tenth = [x if x in (INF, NINF) else Decimal(x) / 10 for x in cells]
        real = classify_two_point((tenth[:2], tenth[2:]), "real")
        assert (real.family, real.swapped) == (shape.family, shape.swapped), rows
        assert real.params == tuple(Decimal(p) / 10 for p in shape.params), rows
        patterns = member_patterns(rows, bound + 1)
        key = swap_key(patterns)
        assert family_of.setdefault(key, shape.family) == shape.family, rows
        assert key_of.setdefault(shape.family, key) == key, rows
        # in the canonical orientation the set itself, not only its key, is the family's
        oriented = {p[::-1] for p in patterns} if shape.swapped else patterns
        assert oriented == FAMILY_PATTERNS[shape.family], rows
        if shape.family in (HALF_PLANE, BAND):
            finite = [(y, x) if shape.swapped else (x, y)
                      for x, y in grid_members(cat_to_lcs(kcat(rows)), bound + 1)
                      if NINF < x < INF and NINF < y < INF]
            extremes = (max(y - x for x, y in finite), max(x - y for x, y in finite))
            assert shape.params == extremes[:len(shape.params)], rows
            params += 1
    assert len(family_of) == len(key_of) == len(FAMILIES)
    # the pattern table has no dead row and misses no pattern
    assert canonical_patterns == set(_FAMILY_OF_PATTERN)
    assert params == {2: 25, 3: 42}[bound]


def test_render_whole_plane():
    D = cat_to_lcs(kcat([[0, INF], [INF, 0]]))
    out = render_region(D, 1).splitlines()
    assert out[0] == "bound=1 index=a,b"
    assert out[1] == "*****"
    assert out[2] == "*###*"
    assert "." not in "".join(out)


def test_render_two_points():
    D = cat_to_lcs(kcat([[NINF, NINF], [NINF, NINF]]))
    out = render_region(D, 1).splitlines()
    grid = "".join(out[1:])
    assert grid.count("*") == 2 and grid.count("#") == 0
    assert out[1][-1] == "*"   # (inf, inf) corner, top right
    assert out[-1][0] == "*"   # (-inf, -inf) corner, bottom left


def test_render_band():
    D = cat_to_lcs(kcat([[0, 1], [1, 0]]))
    out = render_region(D, 2).splitlines()
    body = out[1:]
    # width-3 diagonal stripe in the finite part
    middle = body[3]  # second-coordinate value 0 row
    assert middle == "..###.."
    total_hash = sum(row.count("#") for row in body)
    assert total_hash == sum(1 for a in range(-2, 3) for b in range(-2, 3)
                             if abs(a - b) <= 1)


def test_render_arity_check():
    D = cat_to_lcs(kcat([[0]]))
    with pytest.raises(ValueError):
        render_region(D, 1)


def test_render_needs_the_int_kind():
    D = cat_to_lcs(kcat([[0, 1], [1, 0]], kind="real"))
    with pytest.raises(ValueError, match="^grid enumeration needs the integer scalar kind$"):
        render_region(D, 1)
