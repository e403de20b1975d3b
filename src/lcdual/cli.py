"""Command-line interface.

`COMMANDS` declares each command once: its help, its files with the kinds
each accepts, and its other arguments.  `main` loads the files before the
command runs, so a command computes on values.

Exit codes: 0 success / predicate true, 1 predicate false or invalid
input object (with a report), 2 malformed input, 3 internal error.
A command returns 0 or 1 for its predicate; `main` turns what it raises
into the rest: `InvalidCategory` prints the `validate` report and exits 1,
`DocumentError` and `ValueError` exit 2, anything else exits 3.
"""

import argparse
import sys
from string import whitespace

from .scalars import parse_scalar
from .lattices import get_lattice, law_violations
from .categories import (
    InvalidCategory, make_functor, is_functor, require_category, canonical_leq, verify_yoneda,
    enumerate_functors,
)
from .lconvex import LConvexSet, closure, from_generators, member
from .duality import cat_to_lcs, lcs_to_cat, make_homomorphism, enumerate_homs
from .classify import render_region, two_point_shape
from . import docfiles
from .docfiles import DocumentError


def _load(path, command, kinds):
    """The file at path as the domain value of its kind, one of the kinds command accepts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    doc = docfiles.parse_document(text)
    if doc.kind not in kinds:
        raise DocumentError("%s expects %s file" % (command, docfiles.named_kinds(kinds)))
    return docfiles.convert(doc)


def _parse_spec(spec, sep, entry, form):
    """Parse `key<sep>value,key<sep>value` into a dict of strings stripped of
    ASCII whitespace; entry and form name a chunk in the error messages."""
    out = {}
    for chunk in spec.split(","):
        chunk = chunk.strip(whitespace)
        if not chunk:
            continue
        if sep not in chunk:
            raise DocumentError("bad %s %r (expected %s)" % (entry, chunk, form))
        key, _, value = chunk.partition(sep)
        key = key.strip(whitespace)
        if key in out:
            raise DocumentError("duplicate %s for %r" % (entry, key))
        out[key] = value.strip(whitespace)
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


# the largest --bound: the law suite and render grow as a power of it
MAX_BOUND = 12


def _bound(text):
    """The --bound type: an int scalar literal from 0 to MAX_BOUND."""
    try:
        bound = parse_scalar(text, "int")
    except ValueError:
        bound = -1
    if not 0 <= bound <= MAX_BOUND:
        raise argparse.ArgumentTypeError("invalid bound %r (expected an integer from 0 to %d)"
                                         % (text, MAX_BOUND))
    return bound


def _verdict(ok, prefix=""):
    """Print prefix and true or false; the exit code of that answer."""
    print(prefix + ("true" if ok else "false"))
    return 0 if ok else 1


def _emit(doc):
    sys.stdout.write(docfiles.emit_document(doc))
    return 0


def cmd_validate(args, C):
    require_category(C)
    print("valid")
    return 0


def cmd_dual(args, X):
    if isinstance(X, LConvexSet):
        return _emit(docfiles.from_category(lcs_to_cat(X)))
    return _emit(docfiles.from_lcs(cat_to_lcs(X)))


def cmd_member(args, D):
    return _verdict(member(D, _parse_point_spec(args.point, D.index, D.scalar_kind)))


def cmd_closure(args, c):
    return _emit(docfiles.from_lcs(closure(c)))


def cmd_hull(args, S):
    return _emit(docfiles.from_lcs(from_generators(S)))


def _print_maps(maps):
    """One line per map from its (source label, target label) pairs, then the count."""
    for pairs in maps:
        print(",".join(map("%s:%s".__mod__, pairs)))
    print("count: %d" % len(maps))
    return 0


def cmd_functors(args, A, B):
    require_category(A, B)
    return _print_maps([F.object_map for F in enumerate_functors(A, B)])


def cmd_homs(args, D, E):
    require_category(D, E)
    return _print_maps([F.object_map for F in enumerate_homs(D, E)])


def cmd_leq(args, dom, cod):
    if len(args.map) != 2:
        raise DocumentError("leq needs exactly two --map specs")
    m1, m2 = (_parse_spec(s, ":", "map entry", "from:to") for s in args.map)
    if type(dom) is not type(cod):
        raise DocumentError("leq expects two kcategory files or two lconvex files")
    make, what = ((make_homomorphism, "homomorphism") if isinstance(dom, LConvexSet)
                  else (make_functor, "functor"))
    try:
        F = make(dom, cod, m1)
        G = make(dom, cod, m2)
    except ValueError as exc:
        raise DocumentError("bad map spec: %s" % exc)
    if not is_functor(F) or not is_functor(G):
        raise DocumentError("a map spec is not a %s" % what)
    require_category(dom, cod)
    code = _verdict(canonical_leq(F, G), "forward: ")
    _verdict(canonical_leq(G, F), "backward: ")
    return code


def cmd_classify2(args, C):
    if len(C.objects) != 2:
        raise DocumentError("classify2 expects exactly two labels")
    require_category(C)
    print(two_point_shape(C.hom).describe())
    return 0


def cmd_yoneda_check(args, C):
    require_category(C)
    return _verdict(verify_yoneda(C))


def cmd_render(args, D):
    print(render_region(D, args.bound))
    return 0


def cmd_laws(args):
    bad = law_violations(get_lattice(args.lattice), args.bound)
    for msg in bad:
        print(msg)
    print("violations: %d" % len(bad))
    return 0 if not bad else 1


_MATRIX, _LCX, _KCAT = ("kcategory", "lconvex"), ("lconvex",), ("kcategory",)
_BOUND = ("--bound", dict(type=_bound, default=3))

# name: (command, help, {file argument: the kinds it accepts}, other arguments);
# main loads the files in this order and calls command(args, *their values)
COMMANDS = {
    "validate": (cmd_validate, "check the category / L-convex laws", dict(file=_MATRIX), ()),
    "dual": (cmd_dual, "convert between kcategory and lconvex", dict(file=_MATRIX), ()),
    "member": (cmd_member, "test membership of a point", dict(file=_LCX),
               [("--point", dict(required=True, help="label=value,label=value,..."))]),
    "closure": (cmd_closure, "close raw difference constraints",
                dict(file=("constraints", "lconvex")), ()),
    "hull": (cmd_hull, "smallest L-convex set containing generators",
             dict(file=("generators", "points")), ()),
    "functors": (cmd_functors, "enumerate functors between two categories",
                 dict(domain=_KCAT, codomain=_KCAT), ()),
    "homs": (cmd_homs, "enumerate homomorphisms between two L-convex sets",
             dict(domain=_LCX, codomain=_LCX), ()),
    "leq": (cmd_leq, "canonical ordering between two maps", dict(domain=_MATRIX, codomain=_MATRIX),
            [("--map", dict(action="append", default=[],
                            help="from:to,from:to (give exactly twice)"))]),
    "classify2": (cmd_classify2, "classify a two-point matrix", dict(file=_MATRIX), ()),
    "yoneda-check": (cmd_yoneda_check, "verify the embedding equalities", dict(file=_KCAT), ()),
    "render": (cmd_render, "text picture of a two-index set", dict(file=_LCX), [_BOUND]),
    "laws": (cmd_laws, "run the lattice law suite", {},
             [("lattice", dict(help="two | kbar | kbar_plus | kbar_plus_cart")), _BOUND]),
}


def build_parser(argv):
    """The parser for argv: every command, with the declared arguments of the
    one argv names only, its first element that is a command.  argparse can
    select no other, since no top-level option takes a value."""
    parser = argparse.ArgumentParser(
        prog="lcdual",
        description="Generalized metric spaces, L-convex sets, and their duality.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if arg in COMMANDS), None)
    for name, (_, summary, files, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name == named:
            for dest in files:
                p.add_argument(dest)
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    command, _, files, _ = COMMANDS[args.command]
    try:
        return command(args, *[_load(getattr(args, dest), args.command, kinds)
                               for dest, kinds in files.items()])
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
