"""Text file formats for categories, L-convex sets, constraints and points.

A document is a header (`kind:`, `scalar:`, and a label list introduced
by `points:` for categories or `index:` for everything else) followed by
body lines:

    hom: a b VALUE        (kcategory)
    d: v w VALUE          (lconvex, constraints)
    point: VALUE VALUE    (points, generators; coordinates in index order)

Values use the scalar text syntax (`inf`, `-inf`, numeric literals).
Lines starting with `#` are comments.  Parsing is strict: a malformed line
(an unknown key or label, a duplicate, a bad literal or count of values)
raises DocumentError naming its line.  Errors about the whole document, a
missing kind or scalar header, label list or matrix entry, have no line.
"""

from .scalars import parse_scalar, format_scalar
from .lattices import get_lattice
from .categories import VCategory, _Value
from .lconvex import LConvexSet, GeneratorSet

# kind: (its name with an article, its label-list key, its body-line key, its value type)
KINDS = {
    "kcategory": ("a kcategory", "points", "hom", VCategory),
    "lconvex": ("an lconvex", "index", "d", LConvexSet),
    "constraints": ("a constraints", "index", "d", LConvexSet),
    "points": ("a points", "index", "point", GeneratorSet),
    "generators": ("a generators", "index", "point", GeneratorSet),
}


class DocumentError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class Document(_Value):
    """matrix for matrix kinds, points (tuples of scalars) for point kinds;
    unlike the other value types, a Document is mutable and unhashable."""

    _fields = __slots__ = ("kind", "scalar", "labels", "matrix", "points")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, kind, scalar, labels, matrix=None, points=None):
        self._set(kind=kind, scalar=scalar, labels=labels, matrix=matrix, points=points)


def parse_document(text):
    kind = scalar = labels = None
    entries = {}
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if ":" not in line:
                raise ValueError("expected 'key: value', got %r" % line)
            key, _, rest = line.partition(":")
            key = key.strip()
            rest = rest.strip()
            if key == "kind":
                if kind is not None:
                    raise ValueError("duplicate kind header")
                if rest not in KINDS:
                    raise ValueError("unknown kind %r (expected one of %s)"
                                     % (rest, ", ".join(KINDS)))
                kind = rest
            elif key == "scalar":
                if scalar is not None:
                    raise ValueError("duplicate scalar header")
                if rest not in ("int", "real"):
                    raise ValueError("scalar must be 'int' or 'real'")
                scalar = rest
            elif key in ("index", "points"):
                if labels is not None:
                    raise ValueError("duplicate label list")
                if kind is None:
                    raise ValueError("label list before the kind header")
                expected = KINDS[kind][1]
                if key != expected:
                    raise ValueError("kind %s uses a %r label list, not %r" % (kind, expected, key))
                parts = rest.split()
                if not parts:
                    raise ValueError("empty label list")
                for lab in parts:
                    if not (lab.isidentifier() and lab.isascii()):
                        raise ValueError("label %r is not an ASCII identifier" % lab)
                if len(set(parts)) != len(parts):
                    raise ValueError("duplicate labels in the label list")
                labels = tuple(parts)
            elif key in ("hom", "d", "point"):
                is_point = key == "point"
                # a label list needs the kind header, so labels imply a kind
                if scalar is None or labels is None:
                    raise ValueError("%s before the headers"
                                     % ("point line" if is_point else "matrix entry"))
                expected = KINDS[kind][2]
                if is_point != (expected == "point"):
                    raise ValueError("kind %s has no %s"
                                     % (kind, "point lines" if is_point else "matrix entries"))
                if key != expected:
                    raise ValueError("kind %s uses %r entries, not %r" % (kind, expected, key))
                parts = rest.split()
                if is_point:
                    if len(parts) != len(labels):
                        raise ValueError("point has %d coordinates, index has %d labels"
                                         % (len(parts), len(labels)))
                    points.append(tuple(parse_scalar(v, scalar) for v in parts))
                    continue
                if len(parts) != 3:
                    raise ValueError("expected '%s: a b VALUE'" % key)
                a, b, value = parts
                for lab in (a, b):
                    if lab not in labels:
                        raise ValueError("unknown label %r" % lab)
                if (a, b) in entries:
                    raise ValueError("duplicate entry for pair (%s, %s)" % (a, b))
                entries[(a, b)] = parse_scalar(value, scalar)
            else:
                raise ValueError("unknown key %r" % key)
        except ValueError as exc:
            raise DocumentError(str(exc), lineno)

    for value, what in ((kind, "kind header"), (scalar, "scalar header"), (labels, "label list")):
        if value is None:
            raise DocumentError("missing " + what)
    if KINDS[kind][2] != "point":
        missing = [(a, b) for a in labels for b in labels if (a, b) not in entries]
        if missing:
            raise DocumentError("missing entries for pairs: %s"
                                % ", ".join("(%s, %s)" % p for p in missing))
        matrix = tuple(tuple(entries[(a, b)] for b in labels) for a in labels)
        return Document(kind, scalar, labels, matrix=matrix)
    return Document(kind, scalar, labels, points=tuple(points))


def emit_document(doc):
    _, label_key, key, _ = KINDS[doc.kind]
    lines = ["kind: %s" % doc.kind, "scalar: %s" % doc.scalar,
             "%s: %s" % (label_key, " ".join(doc.labels))]
    if key == "point":
        lines += ["point: " + " ".join(map(format_scalar, pt)) for pt in doc.points]
    else:
        lines += ["%s: %s %s %s" % (key, a, b, format_scalar(x))
                  for a, row in zip(doc.labels, doc.matrix) for b, x in zip(doc.labels, row)]
    return "\n".join(lines) + "\n"


# --- conversions to domain values ---------------------------------------

def named_kinds(kinds):
    """A tuple of kinds as a phrase with its article, e.g. "a constraints or lconvex"."""
    return " or ".join((KINDS[kinds[0]][0],) + kinds[1:])


def convert(doc, *kinds):
    """The domain value of a document, whose kind must be one of kinds if any are given."""
    if kinds and doc.kind not in kinds:
        raise DocumentError("expected %s document, got kind %s" % (named_kinds(kinds), doc.kind))
    value = KINDS[doc.kind][3]
    if value is GeneratorSet:
        return GeneratorSet(doc.labels, doc.points, doc.scalar)
    return value(get_lattice("kbar", doc.scalar), doc.labels, doc.matrix)


def to_category(doc):
    return convert(doc, "kcategory")


def to_constraints(doc):
    return convert(doc, "constraints", "lconvex")


def from_category(C):
    kind = C.lattice.scalar_kind
    return Document("kcategory", kind, C.objects, matrix=C.hom)


def from_lcs(D):
    return Document("lconvex", D.scalar_kind, D.index, matrix=D.dbm)
