"""The frozen-record helper: construction, equality, hashing, repr and
immutability as the record classes rely on them, and a report process
that loads neither `dataclasses` nor `inspect`."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concord import alexander, calculus, pipeline, specs
from concord.calculus import Atom, InfectionDesc, SigExpr
from concord.certified import Interval
from concord.laurent import LaurentPoly
from concord.records import field, frozen
from concord.seifert import SeifertMatrix

from helpers import FreeMatrix

F = Fraction
ROOT = Path(__file__).resolve().parent.parent

ONE = LaurentPoly.one()
KNOT = specs.KnotSpec("K", specs.Unknot())
SUB = alexander.Submodule(None, (), ONE)

# (make(x), where x is the value of the one field left out of eq and hash)
IGNORED = {
    "Submodule.module": lambda x: alexander.Submodule(x, ((F(1),),), ONE),
    "Atom.spec": lambda x: Atom("rho0", "rho0(K)", x),
    "InfectionDesc.module": lambda x: InfectionDesc(KNOT, x),
    "FirstOrderEntry.submodule":
        lambda x: pipeline.FirstOrderEntry(x, SigExpr.zero(), "opaque"),
    "SecondOrderEntry.lagrangian": lambda x: pipeline.SecondOrderEntry(x),
}


@pytest.mark.parametrize("name", sorted(IGNORED))
def test_compare_false_fields_ignored(name):
    make = IGNORED[name]
    a, b = make(object()), make(SUB)
    assert a == b and hash(a) == hash(b)
    assert getattr(a, name.split(".")[1]) is not getattr(b, name.split(".")[1])


def test_equality_needs_the_same_class():
    entries = ((-1, 1), (0, -1))
    assert SeifertMatrix(entries) == SeifertMatrix(entries)
    assert SeifertMatrix(entries) != FreeMatrix(entries)
    assert specs.Abstract() != specs.Unknot()
    assert specs.Unknot() == specs.Unknot()
    assert specs.Torus(2, 3) != (2, 3)


def test_hash_is_the_hash_of_the_compared_fields():
    entries = ((-1, 1), (0, -1))
    assert hash(specs.Torus(2, 3)) == hash((2, 3))
    assert hash(SeifertMatrix(entries)) == hash((entries,))
    assert hash(specs.Unknot()) == hash(())
    assert hash(Atom("rho0", "x", KNOT)) == hash(("rho0", "x"))
    assert len({specs.Torus(2, 3), specs.Torus(2, 3), specs.Torus(3, 2)}) == 2


def test_fields_cannot_be_assigned_or_deleted():
    t = specs.Torus(2, 3)
    with pytest.raises(AttributeError):
        t.p = 5
    with pytest.raises(AttributeError):
        t.other = 1
    with pytest.raises(AttributeError):
        del t.q
    assert t == specs.Torus(2, 3)


@pytest.mark.parametrize("call", [
    lambda: specs.Torus(2),                  # missing
    lambda: specs.Torus(),
    lambda: specs.Torus(2, 3, 4),            # extra positional
    lambda: specs.Torus(2, 3, r=4),          # unexpected keyword
    lambda: specs.Torus(2, p=3),             # duplicate
    lambda: specs.Torus(2, 3, q=3),
    lambda: specs.Unknot(1),
])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_defaults_and_keywords():
    fact = specs.Fact("sigvalue")
    assert (fact.atom, fact.value, fact.lo, fact.hi, fact.provenance) == (
        "", "", None, None, "")
    fact = specs.Fact("sigvalue", hi="3", atom="rho0(K)")
    assert (fact.atom, fact.hi, fact.lo) == ("rho0(K)", "3", None)
    assert specs.Fact(kind="sigvalue", atom="a") == specs.Fact("sigvalue", "a")
    # a default is one class-level object, shared by every instance
    assert pipeline.SecondOrderEntry(SUB).first_order_expr is \
        pipeline.SecondOrderEntry(None).first_order_expr
    # the instance dict holds the fields in order: reports read it with vars()
    a = calculus.Assumption("interval", lo="0", provenance="p")
    assert list(vars(a).items()) == [("kind", "interval"), ("value", ""),
                                     ("lo", "0"), ("hi", None),
                                     ("provenance", "p")]


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(F(0), F(-1))
    with pytest.raises(ValueError, match="square"):
        SeifertMatrix(((1, 0),))
    with pytest.raises(specs.SchemaError):
        specs.KnotSpec("", specs.Unknot())
    # a subclass's own __post_init__ is the one that runs
    assert FreeMatrix(((1, 0, 0),) * 3).size == 3


def test_repr():
    assert repr(specs.Torus(2, -3)) == "Torus(p=2, q=-3)"
    assert repr(specs.Unknot()) == "Unknot()"
    assert repr(FreeMatrix(((2,),))) == "FreeMatrix(entries=((2,),))"
    # class-defined reprs are kept
    assert repr(SigExpr(const=F(1, 2))) == "SigExpr('1/2')"


def test_class_defined_methods_and_field_order():
    @frozen
    class Pair:
        a: int
        b: int = field(default=0, compare=False)

        def __eq__(self, other):
            return isinstance(other, Pair) and self.a % 2 == other.a % 2

        def __hash__(self):
            return self.a % 2

    assert Pair(1) == Pair(3, 7) and hash(Pair(1)) == 1
    with pytest.raises(TypeError):
        @frozen
        class Bad:
            a: int = 0
            b: int


def test_report_process_loads_no_dataclasses():
    """Start-up guard: a report loads neither dataclasses nor inspect
    (together about 5 ms of import, and dataclasses generates code for
    every class it decorates)."""
    code = (
        "import json, sys\n"
        "from concord import cli\n"
        "cli.main(['--format', 'json', 'report', "
        "'tests/data/reports/twist_2.spec.json'])\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') "
        "if m in sys.modules]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
