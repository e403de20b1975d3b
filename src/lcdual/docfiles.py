"""Text file formats for categories, L-convex sets, constraints and points.

A document is a header (`kind:`, `scalar:`, and a label list introduced
by `points:` for categories or `index:` for everything else) followed by
body lines:

    hom: a b VALUE        (kcategory)
    d: v w VALUE          (lconvex, constraints)
    point: VALUE VALUE    (points, generators; coordinates in index order)

Values use the scalar text syntax (`inf`, `-inf`, numeric literals).
Lines starting with `#` are comments.  Parsing is strict: unknown keys,
duplicate or missing matrix entries, and label mismatches are reported
with line numbers.
"""

from dataclasses import dataclass, field

from .scalars import parse_scalar, format_scalar
from .lattices import get_lattice
from .categories import VCategory
from .lconvex import LConvexSet, GeneratorSet

MATRIX_KINDS = ("kcategory", "lconvex", "constraints")
POINT_KINDS = ("points", "generators")
KINDS = MATRIX_KINDS + POINT_KINDS
# the label-list key and the matrix-entry key of each kind
_KEYS = {kind: ("points", "hom") if kind == "kcategory" else ("index", "d") for kind in KINDS}


class DocumentError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass
class Document:
    kind: str
    scalar: str
    labels: tuple
    matrix: tuple = None       # for matrix kinds
    points: tuple = field(default=None)  # for point kinds: tuples of scalars

    label_key = property(lambda self: _KEYS[self.kind][0])
    entry_key = property(lambda self: _KEYS[self.kind][1])


def _is_identifier(label):
    return label.isidentifier() and label.isascii()


def parse_document(text):
    kind = scalar = None
    labels = None
    entries = {}
    points = []
    body_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DocumentError("expected 'key: value', got %r" % line, lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "kind":
            if kind is not None:
                raise DocumentError("duplicate kind header", lineno)
            if rest not in KINDS:
                raise DocumentError("unknown kind %r (expected one of %s)"
                                    % (rest, ", ".join(KINDS)), lineno)
            kind = rest
        elif key == "scalar":
            if scalar is not None:
                raise DocumentError("duplicate scalar header", lineno)
            if rest not in ("int", "real"):
                raise DocumentError("scalar must be 'int' or 'real'", lineno)
            scalar = rest
        elif key in ("index", "points"):
            if labels is not None:
                raise DocumentError("duplicate label list", lineno)
            if body_seen:
                raise DocumentError("label list after body lines", lineno)
            if kind is None:
                raise DocumentError("label list before the kind header", lineno)
            expected = _KEYS[kind][0]
            if key != expected:
                raise DocumentError("kind %s uses a %r label list, not %r"
                                    % (kind, expected, key), lineno)
            parts = rest.split()
            if not parts:
                raise DocumentError("empty label list", lineno)
            for lab in parts:
                if not _is_identifier(lab):
                    raise DocumentError("label %r is not an ASCII identifier" % lab, lineno)
            if len(set(parts)) != len(parts):
                raise DocumentError("duplicate labels in the label list", lineno)
            labels = tuple(parts)
        elif key in ("hom", "d"):
            body_seen = True
            if kind is None or scalar is None or labels is None:
                raise DocumentError("matrix entry before the headers", lineno)
            if kind not in MATRIX_KINDS:
                raise DocumentError("kind %s has no matrix entries" % kind, lineno)
            expected = _KEYS[kind][1]
            if key != expected:
                raise DocumentError("kind %s uses %r entries, not %r"
                                    % (kind, expected, key), lineno)
            parts = rest.split()
            if len(parts) != 3:
                raise DocumentError("expected '%s: a b VALUE'" % key, lineno)
            a, b, value = parts
            for lab in (a, b):
                if lab not in labels:
                    raise DocumentError("unknown label %r" % lab, lineno)
            if (a, b) in entries:
                raise DocumentError("duplicate entry for pair (%s, %s)" % (a, b), lineno)
            try:
                entries[(a, b)] = parse_scalar(value, scalar)
            except ValueError as exc:
                raise DocumentError(str(exc), lineno)
        elif key == "point":
            body_seen = True
            if kind is None or scalar is None or labels is None:
                raise DocumentError("point line before the headers", lineno)
            if kind not in POINT_KINDS:
                raise DocumentError("kind %s has no point lines" % kind, lineno)
            parts = rest.split()
            if len(parts) != len(labels):
                raise DocumentError("point has %d coordinates, index has %d labels"
                                    % (len(parts), len(labels)), lineno)
            try:
                points.append(tuple(parse_scalar(v, scalar) for v in parts))
            except ValueError as exc:
                raise DocumentError(str(exc), lineno)
        else:
            raise DocumentError("unknown key %r" % key, lineno)

    if kind is None:
        raise DocumentError("missing kind header")
    if scalar is None:
        raise DocumentError("missing scalar header")
    if labels is None:
        raise DocumentError("missing label list")
    if kind in MATRIX_KINDS:
        missing = [(a, b) for a in labels for b in labels if (a, b) not in entries]
        if missing:
            raise DocumentError("missing entries for pairs: %s"
                                % ", ".join("(%s, %s)" % p for p in missing))
        matrix = tuple(tuple(entries[(a, b)] for b in labels) for a in labels)
        return Document(kind, scalar, labels, matrix=matrix)
    return Document(kind, scalar, labels, points=tuple(points))


def emit_document(doc):
    lines = ["kind: %s" % doc.kind, "scalar: %s" % doc.scalar,
             "%s: %s" % (doc.label_key, " ".join(doc.labels))]
    if doc.kind in MATRIX_KINDS:
        key = doc.entry_key
        for i, a in enumerate(doc.labels):
            for j, b in enumerate(doc.labels):
                lines.append("%s: %s %s %s" % (key, a, b, format_scalar(doc.matrix[i][j])))
    else:
        for pt in doc.points:
            lines.append("point: %s" % " ".join(format_scalar(x) for x in pt))
    return "\n".join(lines) + "\n"


# --- conversions to domain values ---------------------------------------

def to_category(doc):
    if doc.kind != "kcategory":
        raise DocumentError("expected a kcategory document, got kind %s" % doc.kind)
    return VCategory(get_lattice("kbar", doc.scalar), doc.labels, doc.matrix)


def to_lcs(doc):
    if doc.kind != "lconvex":
        raise DocumentError("expected an lconvex document, got kind %s" % doc.kind)
    return LConvexSet(doc.scalar, doc.labels, doc.matrix)


def to_constraints(doc):
    if doc.kind not in ("constraints", "lconvex"):
        raise DocumentError("expected a constraints document, got kind %s" % doc.kind)
    return LConvexSet(doc.scalar, doc.labels, doc.matrix)


def to_generators(doc):
    if doc.kind not in POINT_KINDS:
        raise DocumentError("expected a generators document, got kind %s" % doc.kind)
    return GeneratorSet(doc.labels, doc.points, doc.scalar)


def from_category(C):
    kind = C.lattice.scalar_kind
    return Document("kcategory", kind, C.objects, matrix=C.hom)


def from_lcs(D):
    return Document("lconvex", D.scalar_kind, D.index, matrix=D.dbm)
