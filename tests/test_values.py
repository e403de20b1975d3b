"""The contract of the seven value types: VCategory, LConvexSet, VFunctor,
Presheaf, GeneratorSet, TwoPointShape and Document.

Each is compared by its fields within its own class, hashes like the tuple
of its fields (Document is unhashable), shows its fields by name in its
repr, survives pickle at every protocol, copy and deepcopy, and, but for
Document, refuses assignment and deletion of every field.  The fields are
the constructor's parameters.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lcdual.lattices import get_lattice
from lcdual.categories import VCategory, VFunctor, Presheaf
from lcdual.lconvex import LConvexSet, GeneratorSet
from lcdual.classify import TwoPointShape, classify_two_point
from lcdual.docfiles import Document, parse_document

L = get_lattice("kbar")
C = VCategory(L, ["a", "b"], [[0, 1], [2, 0]])
C_TWIN = VCategory(L, ("a", "b"), ((0, 1), (2, 0)))
C_REPR = "VCategory(lattice=KbarLattice(int), objects=('a', 'b'), hom=((0, 1), (2, 0)))"
KCAT_TEXT = "kind: kcategory\nscalar: int\npoints: a b\nhom: a a 0\nhom: a b 1\nhom: b a 2\nhom: b b 0\n"

# (value, its twin built from other arguments, the repr of both)
CASES = {
    "VCategory": (C, C_TWIN, C_REPR),
    "LConvexSet": (LConvexSet(L, ["v", "w"], [[0, 1], [1, 0]]), LConvexSet(L, ("v", "w"), ((0, 1), (1, 0))),
                   "LConvexSet(lattice=KbarLattice(int), objects=('v', 'w'), hom=((0, 1), (1, 0)))"),
    "VFunctor": (VFunctor(C, C, [1, 1]), VFunctor(C_TWIN, C_TWIN, (1, 1)),
                 "VFunctor(domain=%s, codomain=%s, positions=(1, 1))" % (C_REPR, C_REPR)),
    "Presheaf": (Presheaf(C, [1, 0]), Presheaf(C_TWIN, (1, 0)),
                 "Presheaf(base=%s, values=(1, 0))" % C_REPR),
    "GeneratorSet": (GeneratorSet(["v", "w"], [[1, 0], [2, 3]]), GeneratorSet(("v", "w"), ((1, 0), (2, 3))),
                     "GeneratorSet(index=('v', 'w'), points=((1, 0), (2, 3)), scalar_kind='int')"),
    "TwoPointShape": (classify_two_point([[0, 1], [2, 0]]), TwoPointShape("Band", (1, 2), False),
                      "TwoPointShape(family='Band', params=(1, 2), swapped=False)"),
    "Document": (parse_document(KCAT_TEXT), Document("kcategory", "int", ("a", "b"), ((0, 1), (2, 0))),
                 "Document(kind='kcategory', scalar='int', labels=('a', 'b'), matrix=((0, 1), (2, 0)),"
                 " points=None)"),
}


def _fields(x):
    return list(inspect.signature(type(x)).parameters)


@pytest.mark.parametrize("name", CASES)
def test_value_equals_its_twin_and_shows_its_fields(name):
    x, twin, text = CASES[name]
    assert type(x).__name__ == name and type(twin) is type(x)
    assert x == twin and twin == x and not x != twin
    assert repr(x) == repr(twin) == text
    assert [getattr(x, f) for f in _fields(x)] == [getattr(twin, f) for f in _fields(x)]
    if name == "Document":
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(twin) == hash(tuple(getattr(x, f) for f in _fields(x)))


@pytest.mark.parametrize("name", CASES)
def test_value_survives_pickle_and_copy(name):
    x = CASES[name][0]
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies + [copy.copy(x), copy.deepcopy(x)]:
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        assert y is not x


@pytest.mark.parametrize("name", [name for name in CASES if name != "Document"])
def test_value_is_frozen(name):
    x = CASES[name][0]
    before = repr(x)
    for f in _fields(x):
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert repr(x) == before


def test_document_is_mutable():
    doc = parse_document(KCAT_TEXT)
    doc.labels = ("c", "d")
    assert doc.labels == ("c", "d") and doc != CASES["Document"][1]


def test_equal_fields_in_another_class_are_not_equal():
    D = LConvexSet(C.lattice, C.objects, C.hom)
    assert (D.lattice, D.objects, D.hom) == (C.lattice, C.objects, C.hom)
    assert D != C and C != D and not D == C and not C == D
    assert len({C, D}) == 2


def test_importing_the_cli_loads_no_code_generation():
    # the value types are plain classes: importing lcdual runs no dataclass
    # code generation, nor the modules it loads
    code = ("import sys; before = set(sys.modules); import lcdual.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    assert "lcdual.cli" in out
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(out)
