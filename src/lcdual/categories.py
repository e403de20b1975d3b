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

from itertools import chain, product, repeat
from operator import attrgetter, itemgetter

from .scalars import format_scalar


class _Value:
    """The shared part of the value types.  A subclass names its fields in
    _fields and keeps them in __slots__; its constructor checks them and
    stores them with _set.  Then == (within one class only) and hash go by
    the field values, repr shows them by name, pickle and copy rebuild the
    value through the constructor, and assigning or deleting an attribute
    raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = property(attrgetter(*cls._fields))  # the field values, as a tuple

    def _set(self, **values):
        for item in values.items():
            object.__setattr__(self, *item)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__,
                           ", ".join(map("%s=%r".__mod__, zip(self._fields, self._key))))

    def __reduce__(self):
        return self.__class__, self._key

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class VCategory(_Value):
    """hom[i][j] = Hom(objects[i], objects[j]), a tuple of tuples of lattice values."""

    _fields = ("lattice", "objects", "hom")
    __slots__ = _fields + ("_pos",)

    def __init__(self, lattice, objects, hom):
        # tuples whatever came in, so ==, hash and comparisons with computed tuples hold
        objects, hom = tuple(objects), tuple(map(tuple, hom))
        if len(set(objects)) != len(objects):
            raise ValueError("object labels must be distinct")
        n = len(objects)
        if len(hom) != n or any(len(row) != n for row in hom):
            raise ValueError("hom matrix shape does not match the object list")
        for row in hom:
            lattice._checked(row)
        self._set(lattice=lattice, objects=objects, hom=hom,
                  _pos={a: i for i, a in enumerate(objects)})

    def hom_at(self, a, b):
        return self.hom[self._pos[a]][self._pos[b]]


def _above(leq, M, N):
    """The (i, j) pairs, in row order, where M[i][j] is not below N[i][j]."""
    return [(i, j) for i, (m, n) in enumerate(zip(M, N))
            for j, ok in enumerate(map(leq, m, n)) if not ok]


def validate_category(C):
    """List of violated-law descriptions; empty iff C is a category.  By
    adjointness the composition law holds at (a, b, every c) iff hom(a, b) is
    below residuals(L, C.hom)[b][a]; c is walked, with the raw tensor on the
    entries C checked when it was built, only for the (a, b) where it is not."""
    L, objects, M = C.lattice, C.objects, C.hom
    bad = []
    for i, a in enumerate(objects):
        if not L.leq(L.unit, M[i][i]):
            bad.append("identity law fails at %s: unit %s is not below hom %s"
                       % (a, format_scalar(L.unit), format_scalar(M[i][i])))
    for i, j in _above(L.leq, M, zip(*residuals(L, M))):
        for c, hbc, hac in zip(objects, M[j], M[i]):
            lhs = L._tensor(M[i][j], hbc)
            if not L.leq(lhs, hac):
                bad.append("composition law fails at (%s, %s, %s): %s is not below %s"
                           % (objects[i], objects[j], c, format_scalar(lhs), format_scalar(hac)))
    return bad


class InvalidCategory(ValueError):
    """A matrix that breaks the category laws; violations, its one argument, lists each one."""

    violations = property(lambda self: self.args[0])

    def __str__(self):
        return "not a valid category: " + "; ".join(self.violations)


def require_category(*cats):
    """Raise InvalidCategory with the violations of each distinct argument, in argument order."""
    distinct = [C for k, C in enumerate(cats) if C not in cats[:k]]
    bad = [msg for C in distinct for msg in validate_category(C)]
    if bad:
        raise InvalidCategory(bad)


def opposite(C):
    """Transpose the hom matrix."""
    return VCategory(C.lattice, C.objects, zip(*C.hom))


_BAD_POSITIONS = "a functor needs one codomain index per domain object"


def _check_positions(positions, n, m):
    """Refuse positions unless they are n ints, each in range(m): the position rule."""
    if len(positions) != n:
        raise ValueError(_BAD_POSITIONS)
    for j in positions:
        if type(j) is not int or not 0 <= j < m:
            raise ValueError(_BAD_POSITIONS)


def _check_lattices(A, B):
    """Refuse a map between categories over different lattices; kbar's int and real kinds mix."""
    if A.lattice.name != B.lattice.name:
        raise ValueError("a map needs one lattice on both sides, not %s and %s"
                         % (A.lattice.name, B.lattice.name))


class VFunctor(_Value, tuple):
    """The functor sending domain.objects[i] to codomain.objects[positions[i]]:
    a frozen value with the fields domain, codomain and positions, stored as
    the tuple (domain, codomain, head, tail) with positions = head + tail,
    so a search builds one with a single tuple.__new__ from a level's prefix
    and a shared tail.  Any split gives the same value: the constructor keeps
    an empty tail; it equals only a VFunctor, hashes like (domain, codomain,
    positions) and is unordered."""

    __slots__ = ()
    _fields = ("domain", "codomain", "positions")
    domain = property(itemgetter(0))
    codomain = property(itemgetter(1))
    positions = property(lambda self: self[2] + self[3])

    def __new__(cls, domain, codomain, positions):
        positions = tuple(positions)
        _check_lattices(domain, codomain)
        _check_positions(positions, len(domain.objects), len(codomain.objects))
        return tuple.__new__(cls, (domain, codomain, positions, ()))

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's item comparison

    def __lt__(self, other):
        raise TypeError("functors are not ordered")
    __le__ = __gt__ = __ge__ = __lt__

    @property
    def object_map(self):
        """Pairs (domain object, codomain object), in domain order."""
        return tuple(zip(self.domain.objects, (self.codomain.objects[j] for j in self.positions)))

    def __call__(self, a):
        i, head = self[0]._pos[a], self[2]
        return self[1].objects[head[i] if i < len(head) else self[3][i - len(head)]]


def _by_object(C, mapping):
    """mapping's values in C's object order, if keyed by exactly C's objects: the label rule."""
    for a in mapping:
        if a not in C._pos:
            raise ValueError("%r is not a domain object" % (a,))
    for a in C.objects:
        if a not in mapping:
            raise ValueError("no image given for %r" % (a,))
    return [mapping[a] for a in C.objects]


def make_functor(domain, codomain, mapping):
    """The functor a |-> mapping[a], from a label mapping keyed by exactly the domain's objects."""
    images = _by_object(domain, mapping)
    for a, b in zip(domain.objects, images):
        if b not in codomain._pos:
            raise ValueError("%r maps to %r, outside the codomain" % (a, b))
    return VFunctor(domain, codomain, [codomain._pos[b] for b in images])


def identity_functor(C):
    return VFunctor(C, C, tuple(range(len(C.objects))))


def _tail_width(n):
    """How many last objects of an n-object domain a search level hands over
    as one table: three from four objects up, two of three (where a table of
    all three would be one unshared level), else all of them."""
    return 3 if n > 3 else min(n, 2)


def _index_maps(src, dst, leq):
    """Every index map c that passes the increasing condition, lexicographic,
    yielded one level at a time: a level is a pair (prefix, tails), the
    positions of every object but the last w = _tail_width(n) and those w
    objects' positions as w-tuples in lexicographic order, so its maps are
    prefix + t for t in tails.  Every level has at least one tail; a src of
    at most two objects has at most the one level ((), tails), and an empty
    src the level ((), ((),)) of the one empty map.

    Depth-first search with forward checking (Haralick & Elliott 1980) over
    bitmask domains (Ullmann 1976): objects are assigned in src order,
    values tried lowest bit first, and each assignment narrows every later
    object's domain with one AND to the values compatible with it both ways;
    an empty domain cuts the branch.  Once every object but the last w is
    assigned, the maps left depend only on those objects' domains, so that
    level is handed over whole; its tails tuple is built once per distinct
    tuple of domain masks, from the pairwise masks the search holds, and
    shared by every level with those masks: a dense 5 -> 6 search hands
    over 36 levels sharing one 216-entry table.  leq runs only to tabulate,
    in one C-level pass over dst's entries per distinct src value: exactly
    len(set(src values)) * |dst|^2 calls, each of which must return a bool,
    as every lattice's leq does.  A pass is kept as |dst|^2 bytes and
    packed into ints of |dst|^2 bits only where the search reads it, so the
    table stays O(|dst|^2) per value.
    """
    n, m = len(src), len(dst)
    flat = [d for drow in dst for d in drow]  # dst[x][y] at m*x + y
    ok = {s: bytes(map(leq, repeat(s), flat)) for s in {s for row in src for s in row}}
    above = [(i, k) for i in range(n) for k in range(i + 1, n)]
    # bit m*x + y of rows[s] is leq(s, dst[x][y]), for s above src's diagonal,
    # and of cols[s] is leq(s, dst[y][x]), for s below it
    rows = {s: _packed(ok[s]) for s in {src[i][k] for i, k in above}}
    cols = {s: _packed(b"".join([ok[s][x::m] for x in range(m)]))
            for s in {src[k][i] for i, k in above}}
    full = (1 << m) - 1
    # both[i][k - i - 1][x], for k > i only: the y with leq(src[i][k], dst[x][y])
    # and leq(src[k][i], dst[y][x]); both[i][-1] is always k = n - 1
    both = [[[pair >> m * x & full for x in range(m)]
             for pair in [rows[src[i][k]] & cols[src[k][i]] for k in range(i + 1, n)]]
            for i in range(n)]
    # domains[i]: every object's domain after assigning objects 0..i-1; at
    # first, object i may take x iff leq(src[i][i], dst[x][x])
    domains = [[_packed(ok[src[i][i]][::m + 1]) for i in range(n)]]
    w = _tail_width(n)
    tables = {}  # the last w objects' domain masks -> their tails

    def table(*masks):
        t = tables.get(masks)
        if t is None:
            if w == 3:  # x, y, z at objects n - 3, n - 2, n - 1
                (a, b, c), (xy, xz), (yz,) = masks, both[-3], both[-2]
                t = [(x, y, z) for x in _bits(a) for y in _bits(b & xy[x])
                     for z in _bits(c & xz[x] & yz[y])]
            elif w == 2:
                (b, c), (yz,) = masks, both[-2]
                t = [(y, z) for y in _bits(b) for z in _bits(c & yz[y])]
            else:  # no pair among at most one object
                t = product(*map(_bits, masks))
            t = tables[masks] = tuple(t)
        return t

    leaf = n - w - 1  # the last object assigned before a level is handed over
    if leaf < 0:  # at most two objects, all in the one level
        t = table(*domains[0])
        if t:
            yield (), t
        return
    c = [0] * (leaf + 1)
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
        if i == leaf:
            d, step = domains[i], both[i]
            if w == 3:
                t = table(d[-3] & step[0][x], d[-2] & step[1][x], d[-1] & step[2][x])
            else:
                t = table(d[-2] & step[0][x], d[-1] & step[1][x])
            if t:
                yield tuple(c), t
            continue
        narrowed = domains[i][:]
        for k, step in enumerate(both[i], i + 1):
            narrowed[k] &= step[x]
            if not narrowed[k]:
                break
        else:
            domains.append(narrowed)
            untried.append(narrowed[i + 1])


_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _packed(flags):
    """The int whose bit k is flags[k], for bools or 0/1 bytes, in C-level passes."""
    return int(bytes(flags).translate(_FLAG_DIGITS)[::-1] or b"0", 2)


def _bits(mask):
    """The set bits of mask, lowest first, one step per set bit."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _image(F):
    """The codomain's hom read through F's positions: hom(F a, F a') at (a, a')."""
    hom, p = F.codomain.hom, F.positions
    return tuple(tuple(hom[i][k] for k in p) for i in p)


def is_functor(F):
    """The increasing condition: hom(a,a') below hom(F a, F a')."""
    return not _above(F.domain.lattice.leq, F.domain.hom, _image(F))


def is_fully_faithful(F):
    return F.domain.hom == _image(F)


def is_isomorphism(F):
    n = len(F.domain.objects)
    return is_fully_faithful(F) and len(set(F.positions)) == n == len(F.codomain.objects)


def compose_functors(G, F):
    """G after F."""
    if F.codomain is not G.domain and F.codomain != G.domain:
        raise ValueError("codomain of the inner functor must be the outer domain")
    return VFunctor(F.domain, G.codomain, tuple(G.positions[j] for j in F.positions))


def functor_hom(F, G):
    """Hom-value between parallel functors: inf over a of hom(F a, G a),
    taken by the raw inf, as B's entries were checked when B was built."""
    if F.domain != G.domain or F.codomain != G.codomain:
        raise ValueError("functors are not parallel")
    B = F.codomain
    return B.lattice._inf([B.hom[i][j] for i, j in zip(F.positions, G.positions)])


def canonical_leq(F, G):
    """F below G iff unit is below the hom-value, i.e. below hom(F a, G a) for every a."""
    L = F.codomain.lattice
    return L.leq(L.unit, functor_hom(F, G))


def enumerate_functors(A, B):
    """All functors A -> B, lexicographic in B's object order."""
    _check_lattices(A, B)
    return _functors(A, B, _index_maps(A.hom, B.hom, A.lattice.leq))


def _functors(domain, codomain, levels):
    """The VFunctors domain -> codomain of the index maps in levels, in order.

    Each level (prefix, tails) of _index_maps is checked whole under the
    position rule that VFunctor.__new__ applies: the prefix once per level as
    the positions of every object but the last _tail_width(n), each tails
    tuple once per distinct tuple as those last positions.  A tails tuple is
    remembered by identity, so no level hashes its entries, and an equal tuple
    that is not the one checked is checked again, since (True, 0) and (1.0, 0)
    equal (1, 0).  The results are then built in one C-level pass after the
    checks: each is the tuple (domain, codomain, prefix, t) for a tail t of
    its level, objects the search already holds, made a VFunctor by one
    tuple.__new__, so each map costs one allocation and no Python frame, and
    each level two list appends; a dense 5 -> 6 search has 7,776 maps in 36
    levels that share one 216-entry tails tuple.
    """
    m = len(codomain.objects)
    width = _tail_width(len(domain.objects))
    head = len(domain.objects) - width
    checked = {}  # id(tails) -> the tails tuple that passed the check, kept so its id is not reused
    prefixes, level_tails = [], []
    for prefix, tails in levels:
        _check_positions(prefix, head, m)
        if checked.get(id(tails)) is not tails:
            for t in tails:
                _check_positions(t, width, m)
            checked[id(tails)] = tails
        prefixes.append(prefix)
        level_tails.append(tails)
    heads = chain.from_iterable(map(repeat, prefixes, map(len, level_tails)))
    return list(map(tuple.__new__, repeat(VFunctor),
                    zip(repeat(domain), repeat(codomain), heads, chain.from_iterable(level_tails))))


def residuals(L, rows):
    """R[i][j] = inf over c of hom_L(rows[i][c], rows[j][c]), the presheaf
    distance between rows i and j.  By the enriched Yoneda lemma a square
    matrix M is the hom of a category iff residuals(L, M) is its transpose.
    The raw hom runs on the entries, and inf checks every result.
    """
    hom, inf = L._hom, L.inf
    return tuple(tuple(inf(map(hom, r, s)) for s in rows) for r in rows)


def self_enrichment(L, carrier):
    """The lattice as a category over itself: hom is the internal hom."""
    carrier = list(carrier)
    labels = tuple(format_scalar(x) for x in carrier)
    if len(set(labels)) != len(labels):
        raise ValueError("carrier values must be distinct")
    return VCategory(L, labels, [[L.hom(x, y) for y in carrier] for x in carrier])


def _checked_points(points, n, L):
    """points as a tuple of tuples, each of n coordinates in L's carrier: the point rule."""
    points = tuple(map(tuple, points))
    if any(len(p) != n for p in points):
        raise ValueError("a point needs %d coordinates, one per index" % n)
    L._checked([x for p in points for x in p])
    return points


class Presheaf(_Value):
    """values[i]: the lattice value at base.objects[i], a point under the point rule."""

    _fields = __slots__ = ("base", "values")

    def __init__(self, base, values):
        (values,) = _checked_points((values,), len(base.objects), base.lattice)
        self._set(base=base, values=values)

    def __call__(self, a):
        return self.values[self.base._pos[a]]


def make_presheaf(base, mapping):
    """The presheaf a |-> mapping[a], from a mapping keyed by exactly the base's objects."""
    return Presheaf(base, _by_object(base, mapping))


def _nonexpansive(L, hom, values):
    """hom[a][b] below hom_L(values[b], values[a]) for all a, b: the presheaf
    test on a hom matrix and a point, both already checked."""
    return not _above(L.leq, hom, [[L._hom(vb, va) for vb in values] for va in values])


def is_presheaf(p):
    """Contravariant nonexpansiveness: hom(a,b) below hom_L(p(b), p(a))."""
    return _nonexpansive(p.base.lattice, p.base.hom, p.values)


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
