"""The package's value classes: immutable, compared and hashed by their
fields, with a dataclass repr, and cheap to import."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import identity_map

from toricgroups import classify, cosets, coxeter, cyclo, garside, maps, presentations, reps, schreier, words
from toricgroups.presentations import ParameterError

AB = words.Alphabet(["x", "y"])
XY = AB.word("x y^-1")
YX = AB.word("y x")
P = presentations.Presentation(AB, (XY,))
Q = presentations.Presentation(AB, (XY, YX))
SG = schreier.SubgroupGenerator("s0", 0, "x")

# each class with two instances whose fields differ
SAMPLES = [
    (words.Word, lambda: words.Word(AB, (1, -2)), lambda: words.Word(AB, (2, 1))),
    (words.GenMap, lambda: identity_map(AB), lambda: words.GenMap(AB, AB, (YX, XY))),
    (words.RewriteStep, lambda: words.RewriteStep(0, XY, YX, None), lambda: words.RewriteStep(1, XY, YX, 0)),
    (words.Derivation, lambda: words.Derivation(XY, ()),
     lambda: words.Derivation(XY, (words.RewriteStep(0, XY, YX, 0),))),
    (cyclo.Cyc, lambda: cyclo.Cyc(4, (1, 2)), lambda: cyclo.Cyc(4, (1, 3))),
    (presentations.Presentation, lambda: presentations.Presentation(AB, (XY,)),
     lambda: presentations.Presentation(AB, (XY, YX))),
    (presentations.FamilyParams, lambda: presentations.FamilyParams("toric", (3, 2, 3)),
     lambda: presentations.FamilyParams("toric", (3, 2, 3), normalize=False)),
    (cosets.EnumStats, lambda: cosets.EnumStats(1, 2, 3, 4, 5, 6, 7), lambda: cosets.EnumStats(1, 2, 3, 4, 5, 6, 8)),
    (coxeter.CoxeterMatrix, lambda: coxeter.CoxeterMatrix.triangle(2, 3, 5),
     lambda: coxeter.CoxeterMatrix.triangle(2, 3, 7)),
    (coxeter.ParabolicReport, lambda: coxeter.maximal_finite_parabolics(coxeter.CoxeterMatrix.triangle(2, 3, 5)),
     lambda: coxeter.maximal_finite_parabolics(coxeter.CoxeterMatrix.triangle(2, 3, 7))),
    (coxeter.CenterReport, lambda: coxeter.CenterReport(120, 60, 2, 1, True, (0, 15)),
     lambda: coxeter.CenterReport(group_order=24, plus_order=12, z_w_order=1, z_w_plus_order=1, contained=True,
                                  z_w_lengths=(0,))),
    (maps.Hom, lambda: maps.Hom(P, identity_map(AB)), lambda: maps.Hom(Q, identity_map(AB))),
    (maps.HomReport, lambda: maps.HomReport(True), lambda: maps.HomReport(False, XY, YX)),
    (maps.PsiParams, lambda: maps.PsiParams(1, 1, 1), lambda: maps.PsiParams(q=1, r=2, ell=2)),
    (reps.Rep, lambda: reps.build_rho_preset(2, 3, 5), lambda: reps.build_rho_preset(6, 2, 3)),
    (schreier.SubgroupGenerator, lambda: schreier.SubgroupGenerator("s0", 0, "x"),
     lambda: schreier.SubgroupGenerator("s1", 1, "x")),
    (schreier.RSResult, lambda: schreier.RSResult(P, (SG,)), lambda: schreier.RSResult(Q, (SG,))),
    (garside.GarsideNF, lambda: garside.GarsideNF(2, 3, 1, ()), lambda: garside.GarsideNF(2, 3, 1, (("x", 1),))),
    (classify.FiniteToric, lambda: classify.FiniteToric("G4", "A4"), lambda: classify.FiniteToric("G8", "S4")),
]
PARAMS = [pytest.param(*s, id=s[0].__name__) for s in SAMPLES]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


def _frozen_dataclass_twin(value):
    """The same fields in a frozen dataclass of the same name."""
    cls = type(value)
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)(*_fields(value))


@pytest.mark.parametrize("cls, make, make_other", PARAMS)
def test_equal_fields_give_equal_values_and_hashes(cls, make, make_other):
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and other != a
    assert cls(*_fields(a)) == a
    assert hash(a) == hash(b)
    if cls is not cyclo.Cyc:  # Cyc keeps its own hash (a rational hashes as its int) and repr
        twin = _frozen_dataclass_twin(a)
        assert hash(a) == hash(twin)
        assert repr(a) == repr(twin)


@pytest.mark.parametrize("cls, make, make_other", PARAMS)
def test_another_class_compares_unequal(cls, make, make_other):
    a = make()
    fields = _fields(a)
    assert a != fields and fields != a
    assert a != _frozen_dataclass_twin(a) and _frozen_dataclass_twin(a) != a
    assert a != object()
    for _, make_b, _ in SAMPLES:
        b = make_b()
        assert (a == b) == (type(b) is cls)


@pytest.mark.parametrize("cls, make, make_other", PARAMS)
def test_values_are_immutable(cls, make, make_other):
    a = make()
    before = _fields(a)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert _fields(a) == before


@pytest.mark.parametrize("cls, make, make_other", PARAMS)
def test_values_survive_pickle(cls, make, make_other):
    a = make()
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls and _fields(b) == _fields(a)


def test_repr_keeps_the_dataclass_form():
    assert repr(XY) == "Word(alphabet=Alphabet(x y), letters=(1, -2))"
    assert repr(maps.PsiParams(1, 2, 3)) == "PsiParams(q=1, r=2, ell=3)"
    # Cyc's repr was always its text form
    assert repr(cyclo.Cyc(4, (1, 2))) == str(cyclo.Cyc(4, (1, 2))) == "1 + 2*z4"


@pytest.mark.parametrize("build, error, message", [
    (lambda: words.Word(AB, (1, 3)), ValueError, "letter 3 out of range"),
    (lambda: words.Word(AB, (0,)), ValueError, "letter 0 out of range"),
    (lambda: words.GenMap(AB, AB, (XY,)), ValueError, "one image required per source generator"),
    (lambda: words.GenMap(AB, words.Alphabet(["x", "z"]), (XY, YX)), ValueError, "image word over wrong alphabet"),
    (lambda: presentations.Presentation(words.Alphabet(["x"]), (XY,)), ValueError, "relator over wrong alphabet"),
    (lambda: presentations.FamilyParams("torus", (2, 3)), ParameterError, "unknown family 'torus'"),
    (lambda: presentations.FamilyParams("toric", (2, 3)), ParameterError, "toric takes 3 labels, got 2"),
    (lambda: presentations.FamilyParams("toric", (1, 2, 3)), ParameterError, "labels must be integers >= 2"),
    (lambda: presentations.FamilyParams("toric", (2, 2, 4)), ParameterError, r"gcd\(2,4\) != 1"),
    (lambda: coxeter.CoxeterMatrix(((1, 2), (2,))), ValueError, "matrix must be square"),
    (lambda: coxeter.CoxeterMatrix(((1, 2), (2, 2))), ValueError, "diagonal labels must be 1"),
    (lambda: coxeter.CoxeterMatrix(((1, 2), (3, 1))), ValueError, "matrix must be symmetric"),
    (lambda: coxeter.CoxeterMatrix(((1, 1), (1, 1))), ValueError, "off-diagonal labels must be >= 2"),
])
def test_constructors_still_validate(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # dataclasses (with inspect, ast, dis and tokenize) and its generated
    # methods were over half the import time of every CLI process
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys, toricgroups.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_loads_no_typing():
    # annotations name their abstract types from collections.abc; under -S no
    # site hook (such as a .pth file) imports typing before the package does
    src = Path(__file__).resolve().parent.parent / "src"
    script = f"import sys\nsys.path.insert(0, {str(src)!r})\nimport toricgroups.cli\nprint('typing' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
