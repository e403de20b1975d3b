import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcdual import categories, classify, cli
from lcdual.categories import enumerate_functors, validate_category
from lcdual.lattices import law_violations
from lcdual.cli import main
from lcdual.docfiles import parse_document, convert
from lcdual.duality import enumerate_homs

from test_lattices import _TwoHomNegatesTarget
import cli_corpus


BAND_KCAT = """\
kind: kcategory
scalar: int
points: v w
hom: v v 0
hom: v w 1
hom: w v 2
hom: w w 0
"""

BAND_LCX = """\
kind: lconvex
scalar: int
index: v w
d: v v 0
d: v w 1
d: w v 1
d: w w 0
"""

TWOPOINTS_LCX = """\
kind: lconvex
scalar: int
index: v w
d: v v -inf
d: v w -inf
d: w v -inf
d: w w -inf
"""


# kind: (a valid file, the same file with a broken composition law, its classify2 shape)
MATRIX_CASES = {
    "kcategory": (BAND_KCAT, BAND_KCAT.replace("hom: w v 2", "hom: w v -2"), "Band s=1 t=2"),
    "lconvex": (TWOPOINTS_LCX, TWOPOINTS_LCX.replace("d: v w -inf", "d: v w 1"), "TwoPoints"),
}

GENS_TEXT = "kind: generators\nscalar: int\nindex: v w\npoint: 0 0\npoint: 1 0\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


@pytest.mark.parametrize("kind", sorted(MATRIX_CASES))
def test_validate(kind, write, capsys):
    good, broken, _ = MATRIX_CASES[kind]
    assert main(["validate", write("good.txt", good)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["validate", write("bad.txt", broken)]) == 1
    assert "composition law" in capsys.readouterr().out
    assert main(["validate", write("gens.gen", GENS_TEXT)]) == 2
    assert "expects a kcategory or lconvex file" in capsys.readouterr().err


def test_validate_parse_error(write, capsys):
    path = write("bad.kcat", "kind: kcategory\nscalar: int\npoints: v w\nhom: v w oops\n")
    assert main(["validate", path]) == 2
    assert "line 4" in capsys.readouterr().err


def test_dual_twice_is_pi_relabel(write, capsys):
    path = write("band.kcat", BAND_KCAT)
    assert main(["dual", path]) == 0
    first = capsys.readouterr().out
    assert "kind: lconvex" in first and "index: v w" in first
    lcx = write("band.lcx", first)
    assert main(["dual", lcx]) == 0
    second = capsys.readouterr().out
    assert "points: pi_v pi_w" in second
    assert "hom: pi_v pi_w 1" in second


@pytest.mark.parametrize("kind", sorted(MATRIX_CASES))
def test_dual_reports_an_invalid_input(kind, write, capsys):
    path = write("bad.txt", MATRIX_CASES[kind][1])
    assert main(["validate", path]) == 1
    report = capsys.readouterr().out
    assert "composition law" in report
    assert main(["dual", path]) == 1
    out, err = capsys.readouterr()
    assert out == report and err == ""


def test_member(write, capsys):
    path = write("band.lcx", BAND_LCX)
    assert main(["member", path, "--point", "v=0,w=1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", path, "--point", "v=0,w=2"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert main(["member", path, "--point", "v=0,w=1,"]) == 0  # empty chunks are skipped
    assert capsys.readouterr().out.strip() == "true"
    two = write("two.lcx", TWOPOINTS_LCX)
    assert main(["member", two, "--point", "v=inf,w=inf"]) == 0


def test_member_bad_point(write, capsys):
    path = write("band.lcx", BAND_LCX)
    assert main(["member", path, "--point", "v=0"]) == 2
    assert "missing coordinates" in capsys.readouterr().err
    assert main(["member", path, "--point", "v=true,w=0"]) == 2
    assert "bad integer scalar literal" in capsys.readouterr().err
    assert main(["member", path, "--point", "v=0,w=5,v=4"]) == 2
    assert "duplicate coordinate for 'v'" in capsys.readouterr().err
    # a spec strips ASCII whitespace only, around labels and values alike
    assert main(["member", path, "--point", "v=\u20030,w=0"]) == 2
    assert capsys.readouterr().err == "error: bad integer scalar literal: '\\u20030'\n"
    assert main(["member", path, "--point", "\u2003v=0,w=0"]) == 2
    assert capsys.readouterr().err == "error: unknown label '\\u2003v' in point\n"
    assert main(["member", path, "--point", " v =\t0 ,w=0\x0c"]) == 0
    assert capsys.readouterr().out == "true\n"


# (command, the other arguments, a spec with one error, the whole stderr)
SPEC_ERRORS = [
    ("member", ["--point"], "v=0,w 1", "error: bad coordinate 'w 1' (expected label=value)\n"),
    ("member", ["--point"], " v = 0 , w=1, v=2", "error: duplicate coordinate for 'v'\n"),
    ("member", ["--point"], "v=0,zz=1", "error: unknown label 'zz' in point\n"),
    ("member", ["--point"], "w=1", "error: point is missing coordinates: v\n"),
    ("leq", ["--map", "v:v,w:w", "--map"], "v:v,w", "error: bad map entry 'w' (expected from:to)\n"),
    ("leq", ["--map", "v:v,w:w", "--map"], "v:v, w : w ,w:v",
     "error: duplicate map entry for 'w'\n"),
]


@pytest.mark.parametrize("command,argv,spec,stderr", SPEC_ERRORS,
                         ids=["point-separator", "point-duplicate", "point-unknown",
                              "point-missing", "map-separator", "map-duplicate"])
def test_spec_errors(command, argv, spec, stderr, write, capsys):
    path = write("band.lcx", BAND_LCX)
    paths = [path] if command == "member" else [path, path]
    assert main([command, *paths, *argv, spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == stderr


def test_closure(write, capsys):
    text = "kind: constraints\nscalar: int\nindex: v w\n" \
           "d: v v 0\nd: v w -1\nd: w v -1\nd: w w 0\n"
    path = write("neg.cons", text)
    assert main(["closure", path]) == 0
    out = capsys.readouterr().out
    assert out.count("-inf") == 4


def test_closure_real_kind_keeps_float_payloads(write, capsys):
    text = "kind: constraints\nscalar: real\nindex: v w\n" \
           "d: v v 0.5\nd: v w 1.5\nd: w v inf\nd: w w 2.0\n"
    path = write("real.cons", text)
    assert main(["closure", path]) == 0
    out = capsys.readouterr().out
    # a clamped diagonal is the real unit, Decimal(0); other payloads keep their text
    assert "d: v v 0\n" in out and "d: w w 0\n" in out and "d: v w 1.5\n" in out


@pytest.mark.parametrize("bound", ["1e308", "-1e308"])
def test_closure_real_kind_float_overflow_exits_2(write, capsys, bound):
    # a closed bound past the float range is the exact sum, and prints as it parses
    text = ("kind: constraints\nscalar: real\nindex: v w x\n"
            "d: v v 0\nd: v w %s\nd: v x inf\n"
            "d: w v inf\nd: w w 0\nd: w x %s\n"
            "d: x v inf\nd: x w inf\nd: x x 0\n" % (bound, bound))
    path = write("huge.cons", text)
    assert main(["closure", path]) == 0
    out = capsys.readouterr().out
    assert "d: v x %sE+308\n" % bound.replace("1e308", "2") in out
    assert main(["validate", write("huge.lcx", out)]) == 0


# the rows of a real matrix whose float closure broke the triangle law at (a, c, b)
ROUNDING_CONS = ("kind: constraints\nscalar: real\nindex: a b c d\n"
                 + "".join("d: %s %s %s\n" % (v, w, x) for v, row in zip("abcd", (
                     "0 6.6 -0.6 4.1", "2.7 0 7.7 7.9", "4.5 3.6 0 1.8", "4.9 -1.9 1.8 0"))
                           for w, x in zip("abcd", row.split())))


def test_closure_real_kind_output_validates(write, capsys):
    assert main(["closure", write("rounding.cons", ROUNDING_CONS)]) == 0
    out = capsys.readouterr().out
    assert "d: a b -0.7\n" in out
    assert main(["validate", write("closed.lcx", out)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main(["closure", write("closed.cons", out)]) == 0
    assert capsys.readouterr().out == out


def test_real_literal_exponent_bound_exits_2(write, capsys):
    lcx = write("zero.lcx", "kind: lconvex\nscalar: real\nindex: v\nd: v v 0\n")
    for literal in ("1e-99999999", "0e-99999999"):
        text = "kind: lconvex\nscalar: real\nindex: v\nd: v v %s\n" % literal
        assert main(["validate", write("tiny.lcx", text)]) == 2
        err = capsys.readouterr().err
        assert "line 4:" in err and "exponent outside [-400, 400]" in err
        assert main(["member", lcx, "--point", "v=%s" % literal]) == 2
        assert "%r has an exponent outside" % literal in capsys.readouterr().err


# v -> w -> x sums past the float range, but v -> y -> x closes (v, x) to 0
LOWERED_CONS = ("kind: constraints\nscalar: real\nindex: v w x y\n"
                "d: v v 0\nd: v w 1e308\nd: v x inf\nd: v y 0\n"
                "d: w v inf\nd: w w 0\nd: w x 1e308\nd: w y inf\n"
                "d: x v inf\nd: x w inf\nd: x x 0\nd: x y inf\n"
                "d: y v inf\nd: y w inf\nd: y x 0\nd: y y 0\n")


def test_closure_real_kind_partial_overflow_closes(write, capsys):
    path = write("lowered.cons", LOWERED_CONS)
    assert main(["closure", path]) == 0
    assert "d: v x 0\n" in capsys.readouterr().out


def test_validate_sums_beyond_the_float_range(write, capsys):
    assert main(["closure", write("lowered.cons", LOWERED_CONS)]) == 0
    assert main(["validate", write("closed.lcx", capsys.readouterr().out)]) == 0
    assert capsys.readouterr().out == "valid\n"
    # 1e308 + 1e308 is finite, so d(a, c) = inf breaks the triangle law
    kcat = ("kind: kcategory\nscalar: real\npoints: a b c\n"
            "hom: a a 0\nhom: a b 1e308\nhom: a c inf\n"
            "hom: b a inf\nhom: b b 0\nhom: b c 1e308\n"
            "hom: c a inf\nhom: c b inf\nhom: c c 0\n")
    assert main(["validate", write("abc.kcat", kcat)]) == 1
    assert "composition law fails at (a, b, c)" in capsys.readouterr().out


def test_member_difference_beyond_the_float_range(write, capsys):
    # w - v = -1e308 - 1e308 is finite, so it breaks the bound -inf
    lcx = "kind: lconvex\nscalar: real\nindex: v w\nd: v v 0\nd: v w -inf\nd: w v inf\nd: w w 0\n"
    assert main(["member", write("low.lcx", lcx), "--point", "v=1e308,w=-1e308"]) == 1
    assert capsys.readouterr().out == "false\n"


def test_hull(write, capsys):
    path = write("gens.gen", GENS_TEXT)
    assert main(["hull", path]) == 0
    out = capsys.readouterr().out
    assert "d: v w 0" in out and "d: w v 1" in out
    # no finite coordinate to show the kind: it comes from the header
    real = write("real.gen", "kind: generators\nscalar: real\nindex: v w\npoint: inf -inf\n")
    assert main(["hull", real]) == 0
    assert "scalar: real" in capsys.readouterr().out


# a valid two-label document of each kind
KIND_TEXTS = {
    "kcategory": BAND_KCAT,
    "lconvex": BAND_LCX,
    "constraints": BAND_LCX.replace("lconvex", "constraints"),
    "points": GENS_TEXT.replace("generators", "points"),
    "generators": GENS_TEXT,
}

# command: (the other arguments, the kinds it accepts as its error names them)
ACCEPTS = {
    "validate": ([], "a kcategory or lconvex"),
    "dual": ([], "a kcategory or lconvex"),
    "member": (["--point", "v=0,w=0"], "an lconvex"),
    "closure": ([], "a constraints or lconvex"),
    "hull": ([], "a generators or points"),
    "functors": (None, "a kcategory"),
    "homs": (None, "an lconvex"),
    "leq": (["--map", "v:v,w:w", "--map", "v:v,w:w"], "a kcategory or lconvex"),
    "classify2": ([], "a kcategory or lconvex"),
    "yoneda-check": ([], "a kcategory"),
    "render": ([], "an lconvex"),
}


def accepted_kinds(command):
    return ACCEPTS[command][1].split(" ", 1)[1].split(" or ")


REFUSED = [(command, kind) for command in ACCEPTS for kind in KIND_TEXTS
           if kind not in accepted_kinds(command)]


@pytest.mark.parametrize("command,kind", REFUSED, ids=["%s-%s" % pair for pair in REFUSED])
def test_wrong_kind_exits_2_naming_the_accepted_kinds(command, kind, write, capsys):
    extra, accepted = ACCEPTS[command]
    wrong = write("wrong.txt", KIND_TEXTS[kind])
    right = write("right.txt", KIND_TEXTS[accepted_kinds(command)[0]])
    if extra is None or command == "leq":  # two files: the wrong one in either place
        argvs = [[command, wrong, right, *(extra or [])], [command, right, wrong, *(extra or [])]]
    else:
        argvs = [[command, wrong, *extra]]
    for argv in argvs:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: %s expects %s file\n" % (command, accepted)


def test_leq_refuses_mixed_kinds(write, capsys):
    kcat, lcx = write("band.kcat", BAND_KCAT), write("band.lcx", BAND_LCX)
    for argv in (["leq", kcat, lcx], ["leq", lcx, kcat]):
        assert main(argv + ["--map", "v:v,w:w", "--map", "v:v,w:w"]) == 2
        assert capsys.readouterr().err == \
            "error: leq expects two kcategory files or two lconvex files\n"


def test_functors_and_homs(write, capsys):
    a = write("a.kcat", BAND_KCAT)
    assert main(["functors", a, a]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("count:")
    d = write("d.lcx", BAND_LCX)
    assert main(["homs", d, d]) == 0
    out = capsys.readouterr().out
    assert "count: 4" in out


def _collapsed(kind, labels):
    key, entry = ("points", "hom") if kind == "kcategory" else ("index", "d")
    return "kind: %s\nscalar: int\n%s: %s\n" % (kind, key, " ".join(labels)) + "".join(
        "%s: %s %s -inf\n" % (entry, a, b) for a in labels for b in labels)


def test_maps_print_label_by_label(write, capsys):
    # a dense 3 -> 3 pair keeps all 27 maps
    kcat, lcx = _collapsed("kcategory", "uvw"), _collapsed("lconvex", "uvw")
    A, D = convert(parse_document(kcat), "kcategory"), convert(parse_document(lcx), "lconvex")
    for command, path, labels, maps in (
            ("functors", write("c.kcat", kcat), A.objects, enumerate_functors(A, A)),
            ("homs", write("c.lcx", lcx), D.index, enumerate_homs(D, D))):
        assert main([command, path, path]) == 0
        want = [",".join("%s:%s" % (a, f(a)) for a in labels) for f in maps]
        assert capsys.readouterr().out == "\n".join(want + ["count: 27"]) + "\n"


HALFPLANE_LCX = BAND_LCX.replace("d: w v 1", "d: w v inf")


def test_homs_are_the_functors_between_the_duals(write, capsys):
    # a homomorphism D -> E is the functor [E] -> [D] with the same index map
    docs, duals = [], []
    for k, text in enumerate((BAND_LCX, TWOPOINTS_LCX, HALFPLANE_LCX, _collapsed("lconvex", "uvw"))):
        docs.append(write("%d.lcx" % k, text))
        assert main(["dual", docs[-1]]) == 0
        duals.append(write("%d.kcat" % k, capsys.readouterr().out))
    for d, dual_d in zip(docs, duals):
        for e, dual_e in zip(docs, duals):
            assert main(["homs", d, e]) == 0
            homs = capsys.readouterr().out
            assert main(["functors", dual_e, dual_d]) == 0
            assert capsys.readouterr().out.replace("pi_", "") == homs


# the self-distance at a is 1, so the identity law fails there
INVALID_KCAT = "kind: kcategory\nscalar: int\npoints: a b\n" \
               "hom: a a 1\nhom: a b 5\nhom: b a 1\nhom: b b 0\n"
INVALID_LCX = BAND_LCX.replace("d: v v 0", "d: v v 1")


def identity_fails(a):
    return ["identity law fails at %s: unit 0 is not below hom 1" % a]


def test_functors_reports_an_invalid_input(write, capsys):
    bad, good = write("inv.kcat", INVALID_KCAT), write("band.kcat", BAND_KCAT)
    for argv in (["functors", bad, good], ["functors", good, bad], ["functors", bad, bad]):
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines() == identity_fails("a")


def test_homs_reports_an_invalid_input(write, capsys):
    bad, good = write("inv.lcx", INVALID_LCX), write("band.lcx", BAND_LCX)
    for argv in (["homs", bad, good], ["homs", good, bad], ["homs", bad, bad]):
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines() == identity_fails("v")


def test_leq_reports_an_invalid_input(write, capsys):
    for text, spec, a in ((INVALID_KCAT, "a:a,b:b", "a"), (INVALID_LCX, "v:v,w:w", "v")):
        bad = write("inv.txt", text)
        assert main(["leq", bad, bad, "--map", spec, "--map", spec]) == 1
        assert capsys.readouterr().out.splitlines() == identity_fails(a)
        # map-spec errors are still reported first, as malformed input
        assert main(["leq", bad, bad, "--map", spec, "--map", spec + ",zz:" + a]) == 2
        assert "bad map spec" in capsys.readouterr().err


def test_leq_functors(write, capsys):
    # identity vs constant-w on an asymmetric band
    text = BAND_KCAT.replace("hom: v w 1", "hom: v w 0")
    path = write("c.kcat", text)
    assert main(["leq", path, path, "--map", "v:v,w:w", "--map", "v:w,w:w"]) == 0
    out = capsys.readouterr().out
    assert "forward: true" in out and "backward: false" in out


def test_leq_homs(write, capsys):
    d = write("d.lcx", BAND_LCX)
    assert main(["leq", d, d, "--map", "v:v,w:w", "--map", "v:v,w:w"]) == 0
    out = capsys.readouterr().out
    assert "forward: true" in out


def test_leq_needs_two_maps(write, capsys):
    d = write("d.lcx", BAND_LCX)
    assert main(["leq", d, d, "--map", "v:v,w:w"]) == 2


@pytest.mark.parametrize("text", [BAND_KCAT, BAND_LCX], ids=["kcategory", "lconvex"])
@pytest.mark.parametrize("spec,message", [
    ("v:v,w:z", "bad map spec"),          # a target outside the codomain
    ("v:v", "bad map spec"),              # no entry for w
    ("v:v,v:w,w:w", "duplicate map entry"),
    ("v:v,w:w,zz:v", "bad map spec"),     # zz is not a domain object
], ids=["outside", "missing", "duplicate", "stray"])
def test_leq_rejects_bad_map_specs(text, spec, message, write, capsys):
    path = write("m.txt", text)
    assert main(["leq", path, path, "--map", "v:v,w:w", "--map", spec]) == 2
    assert message in capsys.readouterr().err


# the swap breaks the increasing condition: d(v, w) is below d(w, v) in kbar
@pytest.mark.parametrize("text,what", [(BAND_KCAT, "functor"), (HALFPLANE_LCX, "homomorphism")],
                         ids=["kcategory", "lconvex"])
def test_leq_rejects_a_map_that_is_not_increasing(text, what, write, capsys):
    path = write("m.txt", text)
    assert main(["leq", path, path, "--map", "v:v,w:w", "--map", "v:w,w:v"]) == 2
    assert capsys.readouterr() == ("", "error: a map spec is not a %s\n" % what)


@pytest.mark.parametrize("kind", sorted(MATRIX_CASES))
def test_classify2(kind, write, capsys):
    good, broken, shape = MATRIX_CASES[kind]
    assert main(["classify2", write("good.txt", good)]) == 0
    assert capsys.readouterr().out.strip() == shape
    assert main(["classify2", write("bad.txt", broken)]) == 1
    assert "composition law" in capsys.readouterr().out
    assert main(["classify2", write("gens.gen", GENS_TEXT)]) == 2
    assert "expects a kcategory or lconvex file" in capsys.readouterr().err
    assert main(["classify2", write("three.txt", _collapsed(kind, "uvw"))]) == 2
    assert capsys.readouterr() == ("", "error: classify2 expects exactly two labels\n")


@pytest.mark.parametrize("kind", sorted(MATRIX_CASES))
def test_classify2_validates_each_input_once(kind, write, capsys, monkeypatch):
    calls = []

    def counted(C):
        calls.append(C)
        return validate_category(C)
    for module in (categories, classify):
        monkeypatch.setattr(module, "validate_category", counted)
    good, broken, shape = MATRIX_CASES[kind]
    assert main(["classify2", write("good.txt", good)]) == 0
    assert capsys.readouterr().out == shape + "\n"
    assert len(calls) == 1
    assert main(["classify2", write("bad.txt", broken)]) == 1
    assert capsys.readouterr().out.startswith("composition law fails")
    assert len(calls) == 2


def test_yoneda_check(write, capsys):
    path = write("band.kcat", BAND_KCAT)
    assert main(["yoneda-check", path]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_yoneda_check_with_composites_past_the_float_range(write, capsys):
    # the dual of a valid real lconvex whose presheaf distances pass
    # through exact sums beyond the float range
    bounds = {("v", "w"): "-1.7976931348623157e+308", ("w", "x"): "1.7976931348623157e+308",
              ("x", "w"): "1e+308", ("v", "x"): "0.0"}
    lines = ["d: %s %s %s" % (a, b, "0.0" if a == b else bounds.get((a, b), "inf"))
             for a in "vwx" for b in "vwx"]
    lcx = write("far.lcx", "kind: lconvex\nscalar: real\nindex: v w x\n" + "\n".join(lines) + "\n")
    assert main(["dual", lcx]) == 0
    kcat = write("far.kcat", capsys.readouterr().out)
    assert main(["yoneda-check", kcat]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_render(write, capsys):
    path = write("band.lcx", BAND_LCX)
    assert main(["render", path, "--bound", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bound=2 index=v,w")
    assert "#" in out


def test_laws(capsys):
    assert main(["laws", "kbar", "--bound", "2"]) == 0
    assert "violations: 0" in capsys.readouterr().out
    assert main(["laws", "nope"]) == 2


def test_laws_at_bound_zero(capsys):
    # --bound 0 is a valid bound: the grid is the infinities and the unit
    assert main(["laws", "kbar", "--bound", "0"]) == 0
    assert capsys.readouterr() == ("violations: 0\n", "")


def test_laws_prints_each_violation(capsys, monkeypatch):
    monkeypatch.setattr(cli, "get_lattice", lambda name: _TwoHomNegatesTarget())
    want = law_violations(_TwoHomNegatesTarget(), 2)
    assert want
    assert main(["laws", "two", "--bound", "2"]) == 1
    assert capsys.readouterr() == ("\n".join(want + ["violations: %d" % len(want)]) + "\n", "")


def run_cli(*argv):
    """`python -m lcdual.cli` in a fresh process, importing this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "lcdual.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_laws_as_a_process():
    done = run_cli("laws", "kbar_plus_cart")
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "violations: 0"
    done = run_cli("laws", "nope")
    assert done.returncode == 2
    assert "unknown lattice" in done.stderr


def test_dual_on_an_invalid_input_as_a_process(write):
    done = run_cli("dual", write("inv.kcat", INVALID_KCAT))
    assert done.returncode == 1
    assert done.stdout.splitlines() == identity_fails("a") and done.stderr == ""


def test_main_is_reentrant_in_one_process(write, capsys):
    # pins what a parser kept between calls must preserve: --map is an
    # append action, so no call may see another call's maps, and a usage
    # error must leave nothing behind for the next call
    path = write("c.kcat", BAND_KCAT.replace("hom: v w 1", "hom: v w 0"))
    for first, second in (("v:v,w:w", "v:w,w:w"), ("v:w,w:w", "v:v,w:w")):
        argv = ["leq", path, path, "--map", first, "--map", second]
        code = main(argv)
        out, err = capsys.readouterr()
        alone = run_cli(*argv)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)
    with pytest.raises(SystemExit) as exc:
        main(["leq", path, "--map", "v:v,w:w"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["validate", path]) == 0
    assert capsys.readouterr() == ("valid\n", "")


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.kcat"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bound_must_be_nonnegative(write, capsys):
    path = write("band.lcx", BAND_LCX)
    for argv in (["render", path, "--bound", "-2"], ["laws", "kbar", "--bound", "-1"],
                 ["render", path, "--bound", "x"], ["laws", "kbar", "--bound", "13"],
                 ["render", path, "--bound", "13"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid bound" in capsys.readouterr().err


def test_bound_takes_the_int_scalar_syntax(write, capsys):
    path = write("band.lcx", BAND_LCX)
    # the int scalar syntax strips ASCII whitespace only: an em space or a no-break space is refused
    for text in ("1_2", "\u0663", "inf", "0x3", "", "3.0", "\u20033", "3\u00a0"):
        with pytest.raises(SystemExit) as exc:
            main(["render", path, "--bound", text])
        assert exc.value.code == 2
        assert "invalid bound %r" % text in capsys.readouterr().err
    for text, bound in ((" 3 ", 3), ("+3", 3), ("12", 12), ("-0", 0)):
        assert main(["render", path, "--bound", text]) == 0
        assert capsys.readouterr().out.startswith("bound=%d index=v,w" % bound)


def test_internal_error_exits_3(write, capsys, monkeypatch):
    def broken(C):
        raise RuntimeError("broken check")
    monkeypatch.setattr(cli, "require_category", broken)
    assert main(["validate", write("band.kcat", BAND_KCAT)]) == 3
    assert "internal error: broken check" in capsys.readouterr().err


USAGES = {
    None: "usage: lcdual [-h] {validate,dual,member,closure,hull,functors,homs,leq,classify2,"
          "yoneda-check,render,laws} ...",
    "validate": "usage: lcdual validate [-h] file",
    "dual": "usage: lcdual dual [-h] file",
    "member": "usage: lcdual member [-h] --point POINT file",
    "closure": "usage: lcdual closure [-h] file",
    "hull": "usage: lcdual hull [-h] file",
    "functors": "usage: lcdual functors [-h] domain codomain",
    "homs": "usage: lcdual homs [-h] domain codomain",
    "leq": "usage: lcdual leq [-h] [--map MAP] domain codomain",
    "classify2": "usage: lcdual classify2 [-h] file",
    "yoneda-check": "usage: lcdual yoneda-check [-h] file",
    "render": "usage: lcdual render [-h] [--bound BOUND] file",
    "laws": "usage: lcdual laws [-h] [--bound BOUND] lattice",
}


@pytest.mark.parametrize("command", list(USAGES))
def test_usage_line(command, capsys, monkeypatch):
    # wide enough that no usage line wraps
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"] if command else ["-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == USAGES[command] and err == ""


def full_parser():
    """The reference parser: every command with all of its declared arguments."""
    parser = argparse.ArgumentParser(
        prog="lcdual",
        description="Generalized metric spaces, L-convex sets, and their duality.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, files, options) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest in files:
            p.add_argument(dest)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def outcome(argv, capsys):
    """main(argv)'s exit code, or SystemExit's, with its stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# argvs where `@kcat` and `@lcx` stand for a file of that kind
PARSE_CASES = [
    [], ["-h"], ["--help"],
    *([command, "-h"] for command in cli.COMMANDS),
    *([command] for command in cli.COMMANDS),
    ["nope"], ["val"], ["val", "@kcat"],
    ["--", "validate", "@kcat"], ["--foo", "validate", "@kcat"], ["-1", "validate", "@kcat"],
    ["laws", "validate"], ["validate", "laws"], ["validate", "-h", "laws"],
    ["validate", "@kcat", "extra"], ["render", "@lcx", "--bound", "13"], ["member", "@lcx"],
    ["leq", "@kcat", "@kcat", "--map", "v:v,w:w", "--map", "v:w,w:w"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_main_matches_a_full_parser(argv, write, capsys, monkeypatch):
    # main declares the arguments of the command argv names only; every
    # answer, usage line and error must be the full parser's
    monkeypatch.setenv("COLUMNS", "100")
    files = {"@kcat": write("band.kcat", BAND_KCAT), "@lcx": write("band.lcx", BAND_LCX)}
    argv = [files.get(arg, arg) for arg in argv]
    got = [outcome(argv, capsys), outcome(tuple(argv), capsys), outcome(iter(argv), capsys)]
    reference = full_parser()
    monkeypatch.setattr(cli, "build_parser", lambda *_: reference)
    assert got == [outcome(argv, capsys)] * 3


@pytest.mark.parametrize("argv", [["render", "@lcx", "--bound", "13"], ["validate", "-h"]])
def test_main_reads_sys_argv_as_a_process(argv, write, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    argv = [write("band.lcx", BAND_LCX) if arg == "@lcx" else arg for arg in argv]
    done = run_cli(*argv)
    reference = full_parser()
    monkeypatch.setattr(cli, "build_parser", lambda *_: reference)
    assert (done.returncode, done.stdout, done.stderr) == outcome(argv, capsys)


@pytest.mark.parametrize("argv", [["-h"], *([command, "-h"] for command in cli.COMMANDS)],
                         ids=" ".join)
def test_main_declares_the_named_commands_arguments_only(argv, capsys, monkeypatch):
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def spy(container, *args, **kwargs):
        if kwargs.get("action") != "help":
            added.append((container.prog, args[0]))
        return add_argument(container, *args, **kwargs)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    with pytest.raises(SystemExit):
        main(argv)
    want = []
    if len(argv) == 2:
        _, _, files, options = cli.COMMANDS[argv[0]]
        want = [("lcdual " + argv[0], arg) for arg in [*files, *(flag for flag, _ in options)]]
    assert added == want


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert [line.split()[1] for line in block.splitlines()] == list(cli.COMMANDS)


def test_golden_corpus():
    # every command, on valid, invalid, malformed and wrong-kind files of both
    # scalar kinds, prints what the committed corpus recorded
    assert {argv[0] for argv in cli_corpus.CASES.values()} == set(cli.COMMANDS)
    committed = cli_corpus.read_corpus()
    assert {code for code, _, _ in committed.values()} == {0, 1, 2}
    assert cli_corpus.run_corpus() == committed
