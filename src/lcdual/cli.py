"""Command-line interface.

Exit codes: 0 success / predicate true, 1 predicate false or invalid
input object (with a report), 2 malformed input, 3 internal error.
"""

import argparse
import sys

from .scalars import parse_scalar, format_scalar
from .lattices import get_lattice, law_violations
from .categories import (
    VCategory, make_functor, is_functor, validate_category, canonical_leq, verify_yoneda,
    enumerate_functors,
)
from .lconvex import closure, from_generators, member, PointVector
from .duality import cat_to_lcs, lcs_to_cat, enumerate_homs
from .classify import classify_two_point, render_region
from . import docfiles
from .docfiles import DocumentError


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    return docfiles.parse_document(text)


def _parse_map_spec(spec):
    """Parse `from:to,from:to` into a dict."""
    out = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise DocumentError("bad map entry %r (expected from:to)" % chunk)
        src, _, dst = chunk.partition(":")
        src, dst = src.strip(), dst.strip()
        if src in out:
            raise DocumentError("duplicate map entry for %r" % src)
        out[src] = dst
    return out


def _parse_point_spec(spec, labels, scalar_kind):
    out = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise DocumentError("bad coordinate %r (expected label=value)" % chunk)
        lab, _, val = chunk.partition("=")
        lab = lab.strip()
        if lab not in labels:
            raise DocumentError("unknown label %r in point" % lab)
        try:
            out[lab] = parse_scalar(val, scalar_kind)
        except ValueError as exc:
            raise DocumentError(str(exc))
    missing = [lab for lab in labels if lab not in out]
    if missing:
        raise DocumentError("point is missing coordinates: %s" % ", ".join(missing))
    return PointVector(out)


def _load_matrix(path, command):
    """A kcategory or lconvex file as the category over kbar that either one is."""
    doc = _load(path)
    if doc.kind not in ("kcategory", "lconvex"):
        raise DocumentError("%s expects a kcategory or lconvex file" % command)
    return VCategory(get_lattice("kbar", doc.scalar), doc.labels, doc.matrix)


def cmd_validate(args):
    bad = validate_category(_load_matrix(args.file, "validate"))
    if bad:
        for msg in bad:
            print(msg)
        return 1
    print("valid")
    return 0


def cmd_dual(args):
    doc = _load(args.file)
    if doc.kind == "kcategory":
        out = docfiles.from_lcs(cat_to_lcs(docfiles.to_category(doc)))
    elif doc.kind == "lconvex":
        out = docfiles.from_category(lcs_to_cat(docfiles.to_lcs(doc)))
    else:
        raise DocumentError("dual expects a kcategory or lconvex file")
    sys.stdout.write(docfiles.emit_document(out))
    return 0


def cmd_member(args):
    doc = _load(args.file)
    D = docfiles.to_lcs(doc)
    p = _parse_point_spec(args.point, D.index, D.scalar_kind)
    ok = member(D, p)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_closure(args):
    doc = _load(args.file)
    D = closure(docfiles.to_constraints(doc))
    sys.stdout.write(docfiles.emit_document(docfiles.from_lcs(D)))
    return 0


def cmd_hull(args):
    doc = _load(args.file)
    D = from_generators(docfiles.to_generators(doc))
    sys.stdout.write(docfiles.emit_document(docfiles.from_lcs(D)))
    return 0


def _print_maps(labels, maps):
    for f in maps:
        print(",".join("%s:%s" % (a, f(a)) for a in labels))
    print("count: %d" % len(maps))
    return 0


def cmd_functors(args):
    A = docfiles.to_category(_load(args.domain))
    B = docfiles.to_category(_load(args.codomain))
    return _print_maps(A.objects, enumerate_functors(A, B))


def cmd_homs(args):
    D = docfiles.to_lcs(_load(args.domain))
    E = docfiles.to_lcs(_load(args.codomain))
    return _print_maps(E.index, enumerate_homs(D, E))


def cmd_leq(args):
    dom_doc = _load(args.domain)
    cod_doc = _load(args.codomain)
    if len(args.map) != 2:
        raise DocumentError("leq needs exactly two --map specs")
    m1, m2 = (_parse_map_spec(s) for s in args.map)
    if dom_doc.kind == "kcategory" and cod_doc.kind == "kcategory":
        A, B = docfiles.to_category(dom_doc), docfiles.to_category(cod_doc)
        what = "functor"
    elif dom_doc.kind == "lconvex" and cod_doc.kind == "lconvex":
        # a homomorphism D -> E is the functor [E] -> [D] with the same index map
        A, B = docfiles.to_lcs(cod_doc), docfiles.to_lcs(dom_doc)
        what = "homomorphism"
    else:
        raise DocumentError("leq expects two kcategory files or two lconvex files")
    try:
        F = make_functor(A, B, m1)
        G = make_functor(A, B, m2)
    except (ValueError, KeyError) as exc:
        raise DocumentError("bad map spec: %s" % exc)
    if not is_functor(F) or not is_functor(G):
        raise DocumentError("a map spec is not a %s" % what)
    forward, backward = canonical_leq(F, G), canonical_leq(G, F)
    print("forward: %s" % ("true" if forward else "false"))
    print("backward: %s" % ("true" if backward else "false"))
    return 0 if forward else 1


def cmd_classify2(args):
    C = _load_matrix(args.file, "classify2")
    if len(C.objects) != 2:
        raise DocumentError("classify2 expects exactly two labels")
    bad = validate_category(C)
    if bad:
        for msg in bad:
            print(msg)
        return 1
    print(classify_two_point(C.hom, C.lattice.scalar_kind).describe())
    return 0


def cmd_yoneda_check(args):
    doc = _load(args.file)
    C = docfiles.to_category(doc)
    bad = validate_category(C)
    if bad:
        for msg in bad:
            print(msg)
        return 1
    ok = verify_yoneda(C)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_render(args):
    doc = _load(args.file)
    D = docfiles.to_lcs(doc)
    print(render_region(D, args.bound))
    return 0


def cmd_laws(args):
    try:
        L = get_lattice(args.lattice)
    except ValueError as exc:
        raise DocumentError(str(exc))
    bad = law_violations(L, args.bound)
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
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("laws", help="run the lattice law suite")
    p.add_argument("lattice", help="two | kbar | kbar_plus | kbar_plus_cart")
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=cmd_laws)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort internal error
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
