import pytest

from lcdual.cli import main


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


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.kcat"]) == 2
    assert "cannot read" in capsys.readouterr().err
