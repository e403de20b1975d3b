"""A golden corpus of `lcdual` CLI runs: exit code and output digests.

CASES names each run: its argv, where an argument `@name` stands for the
path of the file FILES[name].  Every case runs in process through
`cli.main`, and the corpus file cli_corpus.txt holds one line per case:

    case-id exit-code sha256(stdout) sha256(stderr)

`test_cli.py::test_golden_corpus` compares a fresh run with that file, so
any change to what the CLI prints fails it.  After a deliberate change of
output, rewrite the file and list every changed case in CHANGES.md:

    PYTHONPATH=src python3 tests/cli_corpus.py --write

Without --write the script prints the cases that differ and exits 1 if
there are any.  argparse's own output (`-h`, usage errors) is left out,
since its wrapping differs between Python versions; exit code 3 needs an
internal error, which test_cli.py makes with a patched check.
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).resolve().with_name("cli_corpus.txt")


def _matrix(kind, scalar, labels, rows):
    """A matrix document: rows holds each row's entries as one string."""
    key, entry = ("points", "hom") if kind == "kcategory" else ("index", "d")
    lines = ["kind: " + kind, "scalar: " + scalar, "%s: %s" % (key, " ".join(labels))]
    lines += ["%s: %s %s %s" % (entry, a, b, x)
              for a, row in zip(labels, rows) for b, x in zip(labels, row.split())]
    return "\n".join(lines) + "\n"


def _points(kind, scalar, labels, points):
    lines = ["kind: " + kind, "scalar: " + scalar, "index: " + " ".join(labels)]
    return "\n".join(lines + ["point: " + p for p in points]) + "\n"


FILES = {
    "band.kcat": _matrix("kcategory", "int", "vw", ["0 1", "2 0"]),
    "band-real.kcat": _matrix("kcategory", "real", "vw", ["0 0.5", "1.25 0"]),
    "flat.kcat": _matrix("kcategory", "int", "vw", ["0 0", "2 0"]),
    "broken.kcat": _matrix("kcategory", "int", "vw", ["0 1", "-2 0"]),
    "broken-real.kcat": _matrix("kcategory", "real", "vw", ["0 0.5", "-1.5 0"]),
    "inv.kcat": _matrix("kcategory", "int", "ab", ["1 5", "1 0"]),
    "chain.kcat": _matrix("kcategory", "int", "abc", ["0 1 2", "inf 0 1", "inf inf 0"]),
    "collapsed.kcat": _matrix("kcategory", "int", "uvw", ["-inf -inf -inf"] * 3),
    # identity failures, and composition failures at several (a, b) pairs with several c each
    "four.kcat": _matrix("kcategory", "int", "abcd",
                         ["1 0 5 -3", "2 0 -1 inf", "0 4 2 1", "-inf 1 0 0"]),
    "four-real.kcat": _matrix("kcategory", "real", "abcd",
                              ["0.5 0 1.25 -3", "2e1 0 -0.001 inf", "0 4 1e-2 1", "-inf 1.5 0 -inf"]),
    "band.lcx": _matrix("lconvex", "int", "vw", ["0 1", "1 0"]),
    "band-real.lcx": _matrix("lconvex", "real", "vw", ["0 1.5", "0.5 0"]),
    "halfplane.lcx": _matrix("lconvex", "int", "vw", ["0 1", "inf 0"]),
    "twopoints.lcx": _matrix("lconvex", "int", "vw", ["-inf -inf", "-inf -inf"]),
    "inv.lcx": _matrix("lconvex", "int", "vw", ["1 1", "1 0"]),
    "broken.lcx": _matrix("lconvex", "int", "vw", ["0 1", "-2 0"]),
    "triple.lcx": _matrix("lconvex", "int", "vwx", ["0 1 3", "2 0 2", "0 1 0"]),
    "neg.cons": _matrix("constraints", "int", "vw", ["0 -1", "-1 0"]),
    "loose.cons": _matrix("constraints", "int", "vwx", ["3 1 inf", "inf 0 2", "0 inf 1"]),
    "real.cons": _matrix("constraints", "real", "vw", ["0.5 1.5", "inf 2.0"]),
    "gens.gen": _points("generators", "int", "vw", ["0 0", "1 0"]),
    "gens-real.gen": _points("generators", "real", "vwx", ["0.5 -1 inf", "2 1.25 3"]),
    "inf.gen": _points("generators", "real", "vw", ["inf -inf"]),
    "empty.gen": _points("generators", "int", "vw", []),
    "gens.pts": _points("points", "int", "vwx", ["0 1 2", "-inf 0 inf"]),
    # malformed documents, each refused at a numbered line
    "bad-value.kcat": "kind: kcategory\nscalar: int\npoints: v w\nhom: v w oops\n",
    "bad-real.lcx": "kind: lconvex\nscalar: real\nindex: v\nd: v v 1e-99999999\n",
    "bad-key.lcx": "kind: lconvex\nscalar: int\nindex: v w\nd: v v 0\nbound: v w 1\n",
    "bad-label.cons": "kind: constraints\nscalar: int\nindex: v w\nd: v x 0\n",
    "bad-arity.gen": "kind: generators\nscalar: int\nindex: v w\npoint: 0 1 2\n",
    "bad-scalar.gen": "kind: generators\nscalar: float\nindex: v w\n",
    # malformed without a line: an entry is missing
    "missing.kcat": "kind: kcategory\nscalar: int\npoints: v w\nhom: v v 0\n",
}

MAPS = ("--map", "v:v,w:w", "--map")

CASES = {
    "validate-kcat": ["validate", "@band.kcat"],
    "validate-kcat-real": ["validate", "@band-real.kcat"],
    "validate-lcx": ["validate", "@band.lcx"],
    "validate-lcx-real": ["validate", "@band-real.lcx"],
    "validate-broken": ["validate", "@broken.kcat"],
    "validate-broken-real": ["validate", "@broken-real.kcat"],
    "validate-inv-lcx": ["validate", "@inv.lcx"],
    "validate-four": ["validate", "@four.kcat"],
    "validate-four-real": ["validate", "@four-real.kcat"],
    "validate-malformed": ["validate", "@bad-value.kcat"],
    "validate-malformed-real": ["validate", "@bad-real.lcx"],
    "validate-missing-entries": ["validate", "@missing.kcat"],
    "validate-wrong-kind": ["validate", "@gens.gen"],
    "dual-kcat": ["dual", "@band.kcat"],
    "dual-kcat-real": ["dual", "@band-real.kcat"],
    "dual-lcx": ["dual", "@triple.lcx"],
    "dual-lcx-real": ["dual", "@band-real.lcx"],
    "dual-invalid": ["dual", "@inv.kcat"],
    "dual-malformed": ["dual", "@bad-key.lcx"],
    "dual-wrong-kind": ["dual", "@neg.cons"],
    "member-true": ["member", "@band.lcx", "--point", "v=0,w=1"],
    "member-false": ["member", "@band.lcx", "--point", "v=0,w=2"],
    "member-inf": ["member", "@twopoints.lcx", "--point", "v=inf,w=inf"],
    "member-real-true": ["member", "@band-real.lcx", "--point", "v=0.25,w=1.75"],
    "member-real-false": ["member", "@band-real.lcx", "--point", "v=0,w=1.5000001"],
    "member-invalid-object": ["member", "@inv.lcx", "--point", "v=0,w=0"],
    "member-malformed": ["member", "@bad-key.lcx", "--point", "v=0,w=0"],
    "member-wrong-kind": ["member", "@band.kcat", "--point", "v=0,w=0"],
    "member-spec-separator": ["member", "@band.lcx", "--point", "v=0,w 1"],
    "member-spec-duplicate": ["member", "@band.lcx", "--point", " v = 0 , w=1, v=2"],
    "member-spec-unknown": ["member", "@band.lcx", "--point", "v=0,zz=1"],
    "member-spec-missing": ["member", "@band.lcx", "--point", "w=1"],
    "member-spec-literal": ["member", "@band.lcx", "--point", "v=true,w=0"],
    "member-spec-real-literal": ["member", "@band-real.lcx", "--point", "v=1e-99999999,w=0"],
    "closure-cons": ["closure", "@neg.cons"],
    "closure-loose": ["closure", "@loose.cons"],
    "closure-real": ["closure", "@real.cons"],
    "closure-lcx": ["closure", "@halfplane.lcx"],
    "closure-malformed": ["closure", "@bad-label.cons"],
    "closure-wrong-kind": ["closure", "@gens.gen"],
    "hull-gens": ["hull", "@gens.gen"],
    "hull-real": ["hull", "@gens-real.gen"],
    "hull-inf": ["hull", "@inf.gen"],
    "hull-empty": ["hull", "@empty.gen"],
    "hull-points": ["hull", "@gens.pts"],
    "hull-malformed": ["hull", "@bad-arity.gen"],
    "hull-malformed-scalar": ["hull", "@bad-scalar.gen"],
    "hull-wrong-kind": ["hull", "@band.lcx"],
    "functors-band": ["functors", "@band.kcat", "@band.kcat"],
    "functors-chain": ["functors", "@band.kcat", "@chain.kcat"],
    "functors-collapsed": ["functors", "@collapsed.kcat", "@collapsed.kcat"],
    "functors-real": ["functors", "@band-real.kcat", "@band-real.kcat"],
    "functors-invalid": ["functors", "@band.kcat", "@inv.kcat"],
    "functors-two-invalid": ["functors", "@four.kcat", "@inv.kcat"],
    "functors-two-invalid-real": ["functors", "@four-real.kcat", "@broken-real.kcat"],
    "functors-malformed": ["functors", "@band.kcat", "@bad-value.kcat"],
    "functors-wrong-kind": ["functors", "@band.lcx", "@band.kcat"],
    "homs-band": ["homs", "@band.lcx", "@band.lcx"],
    "homs-triple": ["homs", "@halfplane.lcx", "@triple.lcx"],
    "homs-real": ["homs", "@band-real.lcx", "@band-real.lcx"],
    "homs-invalid": ["homs", "@inv.lcx", "@band.lcx"],
    "homs-malformed": ["homs", "@band.lcx", "@bad-key.lcx"],
    "homs-wrong-kind": ["homs", "@band.lcx", "@band.kcat"],
    "leq-functors": ["leq", "@flat.kcat", "@flat.kcat", *MAPS, "v:w,w:w"],
    "leq-functors-real": ["leq", "@band-real.kcat", "@band-real.kcat", *MAPS, "v:v,w:w"],
    "leq-homs": ["leq", "@band.lcx", "@band.lcx", *MAPS, "v:v,w:w"],
    "leq-homs-real": ["leq", "@band-real.lcx", "@band-real.lcx", *MAPS, "v:v,w:w"],
    "leq-invalid": ["leq", "@inv.lcx", "@inv.lcx", *MAPS, "v:v,w:w"],
    "leq-malformed": ["leq", "@band.lcx", "@bad-key.lcx", *MAPS, "v:v,w:w"],
    "leq-wrong-kind": ["leq", "@band.lcx", "@neg.cons", *MAPS, "v:v,w:w"],
    "leq-mixed-kinds": ["leq", "@band.kcat", "@band.lcx", *MAPS, "v:v,w:w"],
    "leq-one-map": ["leq", "@band.lcx", "@band.lcx", "--map", "v:v,w:w"],
    "leq-spec-separator": ["leq", "@band.lcx", "@band.lcx", *MAPS, "v:v,w"],
    "leq-spec-duplicate": ["leq", "@band.lcx", "@band.lcx", *MAPS, "v:v, w : w ,w:v"],
    "leq-spec-outside": ["leq", "@band.kcat", "@band.kcat", *MAPS, "v:v,w:z"],
    "leq-spec-missing": ["leq", "@band.lcx", "@band.lcx", *MAPS, "v:v"],
    "leq-spec-stray": ["leq", "@band.kcat", "@band.kcat", *MAPS, "v:v,w:w,zz:v"],
    "leq-not-a-functor": ["leq", "@band.kcat", "@band.kcat", *MAPS, "v:w,w:v"],
    "leq-not-a-homomorphism": ["leq", "@halfplane.lcx", "@halfplane.lcx", *MAPS, "v:w,w:v"],
    "classify2-kcat": ["classify2", "@band.kcat"],
    "classify2-kcat-real": ["classify2", "@band-real.kcat"],
    "classify2-lcx": ["classify2", "@twopoints.lcx"],
    "classify2-lcx-real": ["classify2", "@band-real.lcx"],
    "classify2-broken": ["classify2", "@broken.lcx"],
    "classify2-three-labels": ["classify2", "@collapsed.kcat"],
    "classify2-malformed": ["classify2", "@missing.kcat"],
    "classify2-wrong-kind": ["classify2", "@gens.pts"],
    "yoneda-check-kcat": ["yoneda-check", "@chain.kcat"],
    "yoneda-check-real": ["yoneda-check", "@band-real.kcat"],
    "yoneda-check-broken": ["yoneda-check", "@broken.kcat"],
    "yoneda-check-malformed": ["yoneda-check", "@bad-value.kcat"],
    "yoneda-check-wrong-kind": ["yoneda-check", "@band.lcx"],
    "render-band": ["render", "@band.lcx", "--bound", "2"],
    "render-halfplane": ["render", "@halfplane.lcx"],
    "render-invalid-object": ["render", "@inv.lcx", "--bound", "1"],
    "render-real": ["render", "@band-real.lcx"],
    "render-three-indices": ["render", "@triple.lcx"],
    "render-malformed": ["render", "@bad-real.lcx"],
    "render-wrong-kind": ["render", "@band.kcat"],
    "laws-two": ["laws", "two"],
    "laws-kbar": ["laws", "kbar", "--bound", "1"],
    "laws-kbar-plus": ["laws", "kbar_plus", "--bound", "1"],
    "laws-kbar-plus-cart": ["laws", "kbar_plus_cart", "--bound", "1"],
    "laws-unknown": ["laws", "nope"],
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_corpus():
    """{case id: (exit code, stdout digest, stderr digest)}, in CASES order."""
    from lcdual.cli import main
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in FILES.items():
            paths["@" + name] = path = Path(tmp, name)
            path.write_text(text, encoding="utf-8")
        for case, argv in CASES.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([str(paths.get(arg, arg)) for arg in argv])
            results[case] = (code, _digest(out.getvalue()), _digest(err.getvalue()))
    return results


def read_corpus():
    """The committed corpus, in the form run_corpus returns."""
    results = {}
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        case, code, out, err = line.split()
        results[case] = (int(code), out, err)
    return results


def main(argv):
    results = run_corpus()
    if argv == ["--write"]:
        CORPUS.write_text("".join("%s %d %s %s\n" % (case, *r) for case, r in results.items()),
                          encoding="utf-8")
        return 0
    if argv:
        print("usage: cli_corpus.py [--write]", file=sys.stderr)
        return 2
    committed = read_corpus()
    changed = [case for case in {**results, **committed}
               if results.get(case) != committed.get(case)]
    for case in changed:
        print(case)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
