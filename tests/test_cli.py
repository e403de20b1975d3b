import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcdual import cli
from lcdual.categories import enumerate_functors
from lcdual.cli import main
from lcdual.docfiles import parse_document, to_category, to_lcs
from lcdual.duality import enumerate_homs


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


def test_member(write, capsys):
    path = write("band.lcx", BAND_LCX)
    assert main(["member", path, "--point", "v=0,w=1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", path, "--point", "v=0,w=2"]) == 1
    assert capsys.readouterr().out.strip() == "false"
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
    assert "d: v v 0.0" in out and "d: w w 0.0" in out and "d: v w 1.5" in out


@pytest.mark.parametrize("bound", ["1e308", "-1e308"])
def test_closure_real_kind_float_overflow_exits_2(write, capsys, bound):
    text = ("kind: constraints\nscalar: real\nindex: v w x\n"
            "d: v v 0\nd: v w %s\nd: v x inf\n"
            "d: w v inf\nd: w w 0\nd: w x %s\n"
            "d: x v inf\nd: x w inf\nd: x x 0\n" % (bound, bound))
    path = write("huge.cons", text)
    assert main(["closure", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "closure leaves the float range at (v, x)" in captured.err


# v -> w -> x sums past the float range, but v -> y -> x closes (v, x) to 0
LOWERED_CONS = ("kind: constraints\nscalar: real\nindex: v w x y\n"
                "d: v v 0\nd: v w 1e308\nd: v x inf\nd: v y 0\n"
                "d: w v inf\nd: w w 0\nd: w x 1e308\nd: w y inf\n"
                "d: x v inf\nd: x w inf\nd: x x 0\nd: x y inf\n"
                "d: y v inf\nd: y w inf\nd: y x 0\nd: y y 0\n")


def test_closure_real_kind_partial_overflow_closes(write, capsys):
    path = write("lowered.cons", LOWERED_CONS)
    assert main(["closure", path]) == 0
    assert "d: v x 0.0" in capsys.readouterr().out


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
    A, D = to_category(parse_document(kcat)), to_lcs(parse_document(lcx))
    for command, path, labels, maps in (
            ("functors", write("c.kcat", kcat), A.objects, enumerate_functors(A, A)),
            ("homs", write("c.lcx", lcx), D.index, enumerate_homs(D, D))):
        assert main([command, path, path]) == 0
        want = [",".join("%s:%s" % (a, f(a)) for a in labels) for f in maps]
        assert capsys.readouterr().out == "\n".join(want + ["count: 27"]) + "\n"


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


@pytest.mark.parametrize("kind", sorted(MATRIX_CASES))
def test_classify2(kind, write, capsys):
    good, broken, shape = MATRIX_CASES[kind]
    assert main(["classify2", write("good.txt", good)]) == 0
    assert capsys.readouterr().out.strip() == shape
    assert main(["classify2", write("bad.txt", broken)]) == 1
    assert "composition law" in capsys.readouterr().out
    assert main(["classify2", write("gens.gen", GENS_TEXT)]) == 2
    assert "expects a kcategory or lconvex file" in capsys.readouterr().err


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


def test_laws_as_a_process():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "lcdual.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("laws", "kbar_plus_cart")
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "violations: 0"
    done = run("laws", "nope")
    assert done.returncode == 2
    assert "unknown lattice" in done.stderr


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.kcat"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bound_must_be_nonnegative(write, capsys):
    path = write("band.lcx", BAND_LCX)
    for argv in (["render", path, "--bound", "-2"], ["laws", "kbar", "--bound", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid bound" in capsys.readouterr().err


def test_internal_error_exits_3(write, capsys, monkeypatch):
    def broken(C):
        raise RuntimeError("broken check")
    monkeypatch.setattr(cli, "validate_category", broken)
    assert main(["validate", write("band.kcat", BAND_KCAT)]) == 3
    assert "internal error: broken check" in capsys.readouterr().err
