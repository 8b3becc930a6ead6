"""Value semantics of the package's records.

The plain records are NamedTuples; CoxeterDiagram and Interval validate
their input and are slotted classes.  Every one compares and hashes by
value and refuses assignment, so records can key the lru caches and no
stage can change a report another stage already read.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from coxcert import CoxeterDiagram
from coxcert.cyclecheck import CycleReport
from coxcert.exactcore import Interval, Signature
from coxcert.gram import ThresholdReport, minor_polynomials
from coxcert.liealg import DensityCertificate
from coxcert.units import GaloisReport, PellSolution, UnitValue
from coxcert.vinberg import EmbeddingCertificate, GeneratorSet, RelationReport
from coxcert.words import FaithfulnessReport

RECORDS = [
    CycleReport,
    DensityCertificate,
    EmbeddingCertificate,
    FaithfulnessReport,
    GaloisReport,
    GeneratorSet,
    PellSolution,
    RelationReport,
    Signature,
    ThresholdReport,
    UnitValue,
]


def test_diagrams_compare_and_hash_by_normalized_edges():
    a, b = CoxeterDiagram(3, {(2, 1)}), CoxeterDiagram(3, {(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert a != CoxeterDiagram(3, {(2, 3)}) and a != CoxeterDiagram(4, {(1, 2)})
    assert repr(a) == "CoxeterDiagram(n=3, edges=frozenset({(1, 2)}))"


def test_an_equal_diagram_built_apart_hits_the_minor_cache():
    edges = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)}
    first = minor_polynomials(CoxeterDiagram(6, edges))
    hits = minor_polynomials.cache_info().hits
    again = minor_polynomials(CoxeterDiagram(6, {(j, i) for i, j in edges}))
    assert minor_polynomials.cache_info().hits == hits + 1
    assert again is first


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(record):
    value = record(*range(len(record._fields)))
    with pytest.raises(AttributeError):
        setattr(value, record._fields[0], -1)


@pytest.mark.parametrize("value, field", [(CoxeterDiagram(3, set()), "n"), (Interval(1, 2), "lo")])
def test_validating_classes_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_interval_holds_fractions_and_refuses_an_empty_range():
    iv = Interval(1, 2)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert iv == Interval(Fraction(1), Fraction(2)) and hash(iv) == hash(Interval(1, 2))
    assert repr(iv) == "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))" and str(iv) == "[1, 2]"
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2, 1)


def test_signature_unpacks_and_prints_as_a_triple():
    p, q, z = Signature(2, 1)
    assert (p, q, z) == (2, 1, 0)
    assert str(Signature(2, 1)) == "(2, 1, 0)" and Signature(2, 1).n == 3
    assert repr(Signature(2, 1)) == "Signature(p=2, q=1, z=0)"
