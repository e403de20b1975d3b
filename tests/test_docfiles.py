from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from lcdual.cli import main
from lcdual.scalars import NEG_INF, POS_INF, MAX_EXPONENT, fin
from lcdual.docfiles import (
    Document, parse_document, emit_document, DocumentError,
    to_category, to_lcs, to_constraints, to_generators,
    from_category, from_lcs,
)

from conftest import kcat


KCAT_TEXT = """\
kind: kcategory
scalar: int
points: v w
# a comment line
hom: v v 0
hom: v w 3
hom: w v 4
hom: w w 0
"""

LCX_TEXT = """\
kind: lconvex
scalar: int
index: v w
d: v v 0
d: v w 1
d: w v 1
d: w w 0
"""

GEN_TEXT = """\
kind: generators
scalar: int
index: v w
point: 0 0
point: 1 inf
point: -inf -2
"""


def test_parse_kcategory():
    doc = parse_document(KCAT_TEXT)
    assert doc.kind == "kcategory" and doc.scalar == "int"
    assert doc.labels == ("v", "w")
    assert doc.matrix == ((fin(0), fin(3)), (fin(4), fin(0)))
    C = to_category(doc)
    assert C.hom_at("v", "w") == fin(3)


def test_parse_lconvex_and_generators():
    D = to_lcs(parse_document(LCX_TEXT))
    assert D.bound("v", "w") == fin(1)
    c = to_constraints(parse_document(LCX_TEXT.replace("lconvex", "constraints")))
    assert c.bound("v", "w") == fin(1) and c.matrix == c.dbm
    S = to_generators(parse_document(GEN_TEXT))
    assert len(S.points) == 3
    assert S.points[1][1] == POS_INF
    assert S.points[2][0] == NEG_INF


def test_emit_is_canonical_roundtrip():
    doc = parse_document(KCAT_TEXT)
    text = emit_document(doc)
    assert "#" not in text
    assert parse_document(text) == doc
    assert emit_document(parse_document(text)) == text


def test_from_category_and_lcs():
    C = kcat([[0, 3], [4, 0]])
    assert parse_document(emit_document(from_category(C))).matrix == C.hom
    D = to_lcs(parse_document(LCX_TEXT))
    assert emit_document(from_lcs(D)).startswith("kind: lconvex")


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["kcategory", "lconvex", "constraints", "points"]))
    scalar = draw(st.sampled_from(["int", "real"]))
    labels = tuple(draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
                                 min_size=1, max_size=3, unique=True)))
    # real payloads: any coefficient, exponents up to the literal bound and at it
    exponent = st.one_of(st.integers(-MAX_EXPONENT, MAX_EXPONENT),
                         st.sampled_from([-MAX_EXPONENT, MAX_EXPONENT]))
    finite = (st.integers() if scalar == "int"
              else st.builds(lambda m, e: Decimal("%dE%d" % (m, e)), st.integers(), exponent))
    entry = st.one_of(st.sampled_from([POS_INF, NEG_INF]), finite.map(fin))
    row = st.tuples(*[entry] * len(labels))
    if kind == "points":
        return Document(kind, scalar, labels, points=tuple(draw(st.lists(row, max_size=3))))
    return Document(kind, scalar, labels, matrix=tuple(draw(row) for _ in labels))


@settings(deadline=None, max_examples=300)
@given(documents())
def test_emit_parse_roundtrip_fuzz(doc):
    text = emit_document(doc)
    again = parse_document(text)
    assert again == doc
    # the same Decimals, exponents included, so the text comes back byte for byte
    assert emit_document(again) == text
    if doc.kind == "lconvex":
        assert from_lcs(to_lcs(doc)) == doc
    if doc.kind == "kcategory":
        assert from_category(to_category(doc)) == doc


@pytest.mark.parametrize("text,line,frag", [
    ("kind: kcategory\nscalar: int\npoints: v w\nhom: v w in\n", 4, "integer"),
    ("kind: kcategory\nscalar: int\npoints: v w\nhom: v w 0\nhom: v w 1\n", 5, "duplicate"),
    ("kind: lconvex\nscalar: int\nindex: v w\nd: v z 0\n", 4, "unknown label"),
    ("kind: lconvex\nscalar: int\nindex: v v\n", 3, "duplicate labels"),
    ("kind: lconvex\nscalar: int\npoints: v w\n", 3, "label list"),
    ("kind: chart\n", 1, "unknown kind"),
    ("kind: lconvex\nscalar: int\nindex: v\nfoo: 1\n", 4, "unknown key"),
    ("kind: points\nscalar: int\nindex: v w\npoint: 1\n", 4, "coordinates"),
    ("kind: lconvex\nscalar: int\nindex v w\n", 3, "expected 'key: value'"),
    ("kind: lconvex\nkind: lconvex\n", 2, "duplicate kind header"),
    ("kind: lconvex\nscalar: int\nscalar: real\n", 3, "duplicate scalar header"),
    ("kind: lconvex\nscalar: complex\n", 2, "scalar must be 'int' or 'real'"),
    ("kind: lconvex\nscalar: int\nindex: v\nindex: w\n", 4, "duplicate label list"),
    # a body line needs the label list first, so a label list after one is a second one
    ("kind: lconvex\nscalar: int\nindex: v\nd: v v 0\nindex: w\n", 5, "duplicate label list"),
    ("scalar: int\nindex: v\n", 2, "label list before the kind header"),
    ("kind: lconvex\nscalar: int\nindex:\n", 3, "empty label list"),
    ("kind: lconvex\nscalar: int\nindex: v 2w\n", 3, "label '2w' is not an ASCII identifier"),
    ("kind: lconvex\nindex: v\nd: v v 0\n", 3, "matrix entry before the headers"),
    ("kind: points\nscalar: int\nindex: v\nd: v v 0\n", 4, "kind points has no matrix entries"),
    ("kind: kcategory\nscalar: int\npoints: v\nd: v v 0\n", 4,
     "kind kcategory uses 'hom' entries, not 'd'"),
    ("kind: lconvex\nscalar: int\nindex: v\nd: v v\n", 4, "expected 'd: a b VALUE'"),
    ("kind: points\nindex: v\npoint: 0\n", 3, "point line before the headers"),
    ("kind: lconvex\nscalar: int\nindex: v\npoint: 0\n", 4, "kind lconvex has no point lines"),
    ("kind: points\nscalar: int\nindex: v w\npoint: 0 1.5\n", 4, "bad integer scalar literal"),
    ("kind: lconvex\nscalar: int\n", None, "missing label list"),
])
def test_parse_errors_carry_line_numbers(text, line, frag):
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert exc.value.line == line
    assert frag in str(exc.value)


@pytest.mark.parametrize("convert", [to_category, to_lcs, to_constraints, to_generators])
def test_converters_refuse_another_kind(convert):
    want = {to_category: "a kcategory", to_lcs: "an lconvex",
            to_constraints: "a constraints or lconvex",
            to_generators: "a generators or points"}[convert]
    other = GEN_TEXT if convert is not to_generators else LCX_TEXT
    doc = parse_document(other)
    with pytest.raises(DocumentError) as exc:
        convert(doc)
    assert str(exc.value) == "expected %s document, got kind %s" % (want, doc.kind)
    assert exc.value.line is None


def test_missing_entries_reported():
    with pytest.raises(DocumentError) as exc:
        parse_document("kind: lconvex\nscalar: int\nindex: v w\nd: v v 0\n")
    assert "missing entries" in str(exc.value)


def test_missing_headers_reported():
    with pytest.raises(DocumentError):
        parse_document("")
    with pytest.raises(DocumentError):
        parse_document("kind: lconvex\n")


def test_real_kind_values():
    text = "kind: lconvex\nscalar: real\nindex: v\nd: v v 0.0\n"
    D = to_lcs(parse_document(text))
    assert D.bound("v", "v") == Decimal("0.0")
    assert "0.0" in emit_document(from_lcs(D))
    # str(Decimal) is lossless: trailing zeros echo, and exponents print as E+n
    text = "kind: lconvex\nscalar: real\nindex: v w\nd: v v 0\nd: v w 2.50\nd: w v 1e308\nd: w w 0\n"
    out = emit_document(from_lcs(to_lcs(parse_document(text))))
    assert "d: v w 2.50\n" in out and "d: w v 1E+308\n" in out


@pytest.mark.parametrize("kind,value", [
    ("int", "1_000"),      # digit grouping
    ("int", "\u0663"),     # Arabic-Indic three
    ("int", "true"),       # truth values are no matrix scalar
    ("real", "1_0.5"),
])
def test_scalar_literals_outside_the_grammar(tmp_path, capsys, kind, value):
    path = tmp_path / "bad.kcat"
    path.write_text("kind: kcategory\nscalar: %s\npoints: v\nhom: v v %s\n" % (kind, value),
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err
