"""The package's record types: repr text, equality and hashing, ordering,
validation, normalisation and immutability, which callers and the CLI's
output rely on whatever class machinery the records are built with."""

import pytest

from clasptools.census import ExceptionalKnot
from clasptools.clasp import ClaspParams, SquareSearchResult, enumerate_params
from clasptools.diagram import parse_pd
from clasptools.laurent import LaurentPoly
from clasptools.openbook import OpenBookTriple, Presentation, Verdict
from clasptools.tangle import CatalogEntry, ExtendedRational, MontesinosDesc

TREFOIL = parse_pd("PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]")
DESC = MontesinosDesc.parse("-2/3,2,1/2")
DESC_REPR = ("MontesinosDesc(entries=(ExtendedRational(p=-2, q=3), "
             "ExtendedRational(p=2, q=1), ExtendedRational(p=1, q=2)))")

# One instance of each record type, its repr and its field names.
RECORDS = [
    (ExceptionalKnot("K", 1, -1, TREFOIL),
     "ExceptionalKnot(name='K', eps1=1, eps2=-1, "
     "diagram=Diagram(PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]))",
     ("name", "eps1", "eps2", "diagram")),
    (ClaspParams(1, -1, 2, 0, -1, "X"),
     "ClaspParams(eps1=1, eps2=-1, l1=2, l2=0, l=-1, disk_type='X')",
     ("eps1", "eps2", "l1", "l2", "l", "disk_type")),
    (SquareSearchResult("found", "", LaurentPoly.term(1, ev=2)),
     "SquareSearchResult(status='found', reason='', f1=LaurentPoly('1*v^2'), f2=None)",
     ("status", "reason", "f1", "f2")),
    (Presentation(((1, 2, -2, 1), (2,))),
     "Presentation(relators=((1, 1), (2,)))",
     ("relators",)),
    (OpenBookTriple(2, 3, 7), "OpenBookTriple(a=2, b=3, c=7)", ("a", "b", "c")),
    (Verdict((7, 3, 2), (2, 3, 7), "nontrivial-pi1", {"method": "abelianization"}),
     "Verdict(triple=(7, 3, 2), normalized=(2, 3, 7), verdict='nontrivial-pi1', "
     "certificate={'method': 'abelianization'})",
     ("triple", "normalized", "verdict", "certificate")),
    (ExtendedRational(4, -6), "ExtendedRational(p=-2, q=3)", ("p", "q")),
    (DESC, DESC_REPR, ("entries",)),
    (CatalogEntry("ii", "6_2", None, DESC),
     f"CatalogEntry(family='ii', name='6_2', diagram=None, description={DESC_REPR}, "
     "params={}, note='')",
     ("family", "name", "diagram", "description", "params", "note")),
]
NAMES = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=NAMES)
def test_repr_text(record, text, fields):
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=NAMES)
def test_fields_cannot_be_assigned(record, text, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_equality_and_hash():
    p = ClaspParams(1, 1, 0, 0, 0)
    assert p == ClaspParams(1, 1, 0, 0, 0, "II") and p != ClaspParams(1, 1, 0, 0, 0, "X")
    assert hash(p) == hash(ClaspParams(1, 1, 0, 0, 0, "II"))
    assert ClaspParams(1, 1, 0, 0, 0) in {p, ClaspParams(-1, 1, 0, 0, 0)}
    assert ClaspParams(1, 1, 0, 0, 0, "X") not in {p}
    assert len({p, ClaspParams(1, 1, 0, 0, 0), p.swapped()}) == 1
    assert hash(OpenBookTriple(2, 3, 7)) == hash(OpenBookTriple(2, 3, 7))
    assert OpenBookTriple(2, 3, 7) != OpenBookTriple(2, 7, 3)
    assert hash(ExceptionalKnot("K", 1, 1, TREFOIL)) == hash(ExceptionalKnot("K", 1, 1, TREFOIL))
    assert MontesinosDesc.parse("-2/3, 2 ,1/2") == DESC
    assert hash(MontesinosDesc.parse("-2/3, 2 ,1/2")) == hash(DESC)
    assert SquareSearchResult("refuted") == SquareSearchResult("refuted", "", None, None)


def test_extended_rational_normal_form():
    assert ExtendedRational(4, -6) == ExtendedRational(-2, 3)
    assert hash(ExtendedRational(4, -6)) == hash(ExtendedRational(-2, 3))
    assert (ExtendedRational(4, -6).p, ExtendedRational(4, -6).q) == (-2, 3)
    assert ExtendedRational(1, 0) == ExtendedRational(-1, 0) == ExtendedRational(7, 0)
    assert repr(ExtendedRational(-1, 0)) == "ExtendedRational(p=1, q=0)"
    rs = (ExtendedRational(-1, 0), ExtendedRational(6, 3), ExtendedRational(3, -6))
    assert [str(r) for r in rs] == ["inf", "2", "-1/2"]
    assert f"{ExtendedRational(2, 6)}" == "1/3"
    assert str(MontesinosDesc.of(ExtendedRational(1, 0), "-2/4", 3)) == "K(inf,-1/2,3)"


def test_presentation_reduces_its_relators():
    p = Presentation([(1, 2, -2, -1, 1), (2, -2), (-1, 1, 2)])
    assert p.relators == ((1,), (), (2,))
    assert p == Presentation(((1,), (), (2,)))


def test_enumerate_params_is_sorted_by_fields():
    sols = enumerate_params(2, 1, "II", 5)
    keys = [(p.eps1, p.eps2, p.l1, p.l2, p.l, p.disk_type) for p in sols]
    assert keys == sorted(keys) and len(set(keys)) == len(keys) == 36
    assert keys[0] == (-1, -1, -1, -1, 0, "II")
    assert keys[-1] == (1, 1, 1, 1, 0, "II")
    assert sols == sorted(sols)
    assert ClaspParams(-1, 1, 0, 0, 0) < ClaspParams(1, -1, 0, 0, 0) < ClaspParams(1, 1, -3, 0, 0)


def test_defaults():
    assert ClaspParams(1, 1, 0, 0, 0).disk_type == "II"
    assert SquareSearchResult("inconclusive").reason == ""
    a, b = CatalogEntry("i", "a", None), CatalogEntry("i", "b", None)
    assert a.description is None and a.note == "" and a.params == {}
    assert a.params is not b.params


@pytest.mark.parametrize("build, message", [
    (lambda: ClaspParams(2, 1, 0, 0, 0), "clasp signs must be +1 or -1"),
    (lambda: ClaspParams(1, 0, 0, 0, 0, "X"), "clasp signs must be +1 or -1"),
    (lambda: ClaspParams(1, 1, 0, 0, 0, "Y"), "disk type must be 'X' or 'II'"),
    (lambda: ExtendedRational(0, 0), "0/0 is not an extended rational"),
    (lambda: MontesinosDesc((ExtendedRational(1, 2), ExtendedRational(1, 3))),
     "length-three Montesinos descriptions only"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
