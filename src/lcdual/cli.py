"""Command-line interface.

Exit codes: 0 success / predicate true, 1 predicate false or invalid
input object (with a report), 2 malformed input, 3 internal error.
A command returns 0 or 1 for its predicate; `main` turns what it raises
into the rest: `InvalidCategory` prints the `validate` report and exits 1,
`DocumentError` and `ValueError` exit 2, anything else exits 3.
"""

import argparse
import sys

from .scalars import parse_scalar
from .lattices import get_lattice, law_violations
from .categories import (
    InvalidCategory, make_functor, is_functor, require_category, canonical_leq, verify_yoneda,
    enumerate_functors,
)
from .lconvex import LConvexSet, closure, from_generators, member
from .duality import cat_to_lcs, lcs_to_cat, enumerate_homs
from .classify import render_region, two_point_shape
from . import docfiles
from .docfiles import DocumentError


def _load(path, command, *kinds):
    """The file at path as the domain value of its kind, one of the kinds command accepts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    doc = docfiles.parse_document(text)
    if doc.kind not in kinds:
        article = "an" if kinds[0] == "lconvex" else "a"
        raise DocumentError("%s expects %s %s file" % (command, article, " or ".join(kinds)))
    return docfiles.convert(doc)


def _parse_spec(spec, sep, entry, form):
    """Parse `key<sep>value,key<sep>value` into a dict of stripped strings;
    entry and form name a chunk in the error messages."""
    out = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if sep not in chunk:
            raise DocumentError("bad %s %r (expected %s)" % (entry, chunk, form))
        key, _, value = chunk.partition(sep)
        key = key.strip()
        if key in out:
            raise DocumentError("duplicate %s for %r" % (entry, key))
        out[key] = value.strip()
    return out


def _parse_point_spec(spec, labels, scalar_kind):
    coords = _parse_spec(spec, "=", "coordinate", "label=value")
    for lab, text in coords.items():
        if lab not in labels:
            raise DocumentError("unknown label %r in point" % lab)
        coords[lab] = parse_scalar(text, scalar_kind)
    missing = [lab for lab in labels if lab not in coords]
    if missing:
        raise DocumentError("point is missing coordinates: %s" % ", ".join(missing))
    return tuple(coords[lab] for lab in labels)


def _bound(text):
    """The --bound type: a nonnegative integer."""
    try:
        bound = int(text)
    except ValueError:
        bound = -1
    if bound < 0:
        raise argparse.ArgumentTypeError("invalid bound %r (expected an integer >= 0)" % text)
    return bound


def cmd_validate(args):
    require_category(_load(args.file, "validate", "kcategory", "lconvex"))
    print("valid")
    return 0


def cmd_dual(args):
    X = _load(args.file, "dual", "kcategory", "lconvex")
    if isinstance(X, LConvexSet):
        out = docfiles.from_category(lcs_to_cat(X))
    else:
        out = docfiles.from_lcs(cat_to_lcs(X))
    sys.stdout.write(docfiles.emit_document(out))
    return 0


def cmd_member(args):
    D = _load(args.file, "member", "lconvex")
    p = _parse_point_spec(args.point, D.index, D.scalar_kind)
    ok = member(D, p)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_closure(args):
    D = closure(_load(args.file, "closure", "constraints", "lconvex"))
    sys.stdout.write(docfiles.emit_document(docfiles.from_lcs(D)))
    return 0


def cmd_hull(args):
    D = from_generators(_load(args.file, "hull", "generators", "points"))
    sys.stdout.write(docfiles.emit_document(docfiles.from_lcs(D)))
    return 0


def _print_maps(maps):
    """One line per map from its (source label, target label) pairs, then the count."""
    for pairs in maps:
        print(",".join(map("%s:%s".__mod__, pairs)))
    print("count: %d" % len(maps))
    return 0


def cmd_functors(args):
    A = _load(args.domain, "functors", "kcategory")
    B = _load(args.codomain, "functors", "kcategory")
    require_category(A, B)
    return _print_maps([F.object_map for F in enumerate_functors(A, B)])


def cmd_homs(args):
    D = _load(args.domain, "homs", "lconvex")
    E = _load(args.codomain, "homs", "lconvex")
    require_category(D, E)
    return _print_maps([F.object_map for F in enumerate_homs(D, E)])


def cmd_leq(args):
    dom = _load(args.domain, "leq", "kcategory", "lconvex")
    cod = _load(args.codomain, "leq", "kcategory", "lconvex")
    if len(args.map) != 2:
        raise DocumentError("leq needs exactly two --map specs")
    m1, m2 = (_parse_spec(s, ":", "map entry", "from:to") for s in args.map)
    if type(dom) is not type(cod):
        raise DocumentError("leq expects two kcategory files or two lconvex files")
    # a homomorphism D -> E is the functor [E] -> [D] with the same index map
    A, B, what = (cod, dom, "homomorphism") if isinstance(dom, LConvexSet) else (dom, cod, "functor")
    try:
        F = make_functor(A, B, m1)
        G = make_functor(A, B, m2)
    except ValueError as exc:
        raise DocumentError("bad map spec: %s" % exc)
    if not is_functor(F) or not is_functor(G):
        raise DocumentError("a map spec is not a %s" % what)
    require_category(dom, cod)
    forward, backward = canonical_leq(F, G), canonical_leq(G, F)
    print("forward: %s" % ("true" if forward else "false"))
    print("backward: %s" % ("true" if backward else "false"))
    return 0 if forward else 1


def cmd_classify2(args):
    C = _load(args.file, "classify2", "kcategory", "lconvex")
    if len(C.objects) != 2:
        raise DocumentError("classify2 expects exactly two labels")
    require_category(C)
    print(two_point_shape(C.hom).describe())
    return 0


def cmd_yoneda_check(args):
    C = _load(args.file, "yoneda-check", "kcategory")
    require_category(C)
    ok = verify_yoneda(C)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_render(args):
    print(render_region(_load(args.file, "render", "lconvex"), args.bound))
    return 0


def cmd_laws(args):
    bad = law_violations(get_lattice(args.lattice), args.bound)
    for msg in bad:
        print(msg)
    print("violations: %d" % len(bad))
    return 0 if not bad else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lcdual",
        description="Generalized metric spaces, L-convex sets, and their duality.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the category / L-convex laws")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dual", help="convert between kcategory and lconvex")
    p.add_argument("file")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("member", help="test membership of a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="label=value,label=value,...")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("closure", help="close raw difference constraints")
    p.add_argument("file")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("hull", help="smallest L-convex set containing generators")
    p.add_argument("file")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("functors", help="enumerate functors between two categories")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.set_defaults(func=cmd_functors)

    p = sub.add_parser("homs", help="enumerate homomorphisms between two L-convex sets")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("leq", help="canonical ordering between two maps")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--map", action="append", default=[],
                   help="from:to,from:to (give exactly twice)")
    p.set_defaults(func=cmd_leq)

    p = sub.add_parser("classify2", help="classify a two-point matrix")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify2)

    p = sub.add_parser("yoneda-check", help="verify the embedding equalities")
    p.add_argument("file")
    p.set_defaults(func=cmd_yoneda_check)

    p = sub.add_parser("render", help="text picture of a two-index set")
    p.add_argument("file")
    p.add_argument("--bound", type=_bound, default=3)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("laws", help="run the lattice law suite")
    p.add_argument("lattice", help="two | kbar | kbar_plus | kbar_plus_cart")
    p.add_argument("--bound", type=_bound, default=3)
    p.set_defaults(func=cmd_laws)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidCategory as exc:
        print("\n".join(exc.violations))
        return 1
    except (DocumentError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort internal error
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
