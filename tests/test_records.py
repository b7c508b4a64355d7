"""Semantics of the package's record types: equality, hashing, immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from k3lat import lattice as lt
from k3lat import specparse as sp
from k3lat.e8 import orbits_of_norm
from k3lat.glue import DivisorCell, EmbeddingReport, ScaleContribution
from k3lat.sbad import ExtensionWitness
from k3lat.shortvec import NormHistogram


def cell(**extra):
    fields = {"k": 1, "norm": Fraction(-1, 2), "count": 3, "vanishing": True}
    return DivisorCell(**{**fields, **extra})


def test_equality_within_a_type():
    assert lt.from_gram([[2, 1], [1, 2]]) == lt.from_gram([[2, 1], [1, 2]])
    assert lt.from_gram([[2]]) != lt.from_gram([[4]])
    assert cell() == cell() and cell() != cell(count=4)
    assert sp.parse_spec("E8 + -(2)") == sp.parse_spec(" E8+-( 2 )")
    assert sp.parse_spec("E8") != sp.parse_spec("-E8")
    first, second = orbits_of_norm(8), orbits_of_norm(8)
    assert first == second and first[0] != first[1]
    assert NormHistogram(counts={Fraction(2): 6}) == NormHistogram(counts={Fraction(2): 6})


def test_records_of_different_types_or_tuples_are_unequal():
    assert sp.Named("E8") != sp.GramFile("E8")
    assert sp.Rank1(2) != sp.Named(2)
    assert ScaleContribution(1, Fraction(-1), 1, 3) != DivisorCell(1, Fraction(-1), 1, 3)
    orbit = orbits_of_norm(2)[0]
    for record, fields in [
            (sp.Named("E8"), ("E8",)),
            (sp.Term(False, sp.Named("E8")), (False, sp.Named("E8"))),
            (cell(), (1, Fraction(-1, 2), 3, True)),
            (lt.from_gram([[2]]), (((2,),),)),
            (EmbeddingReport(True, 1, 0, (2, 0), 28), (True, 1, 0, (2, 0), 28)),
            (orbit, (orbit.two_n, orbit.representative, orbit.primitive,
                     orbit.orbit_size, orbit.root_count_u))]:
        assert record != fields and fields != record


def test_immutable_public_types_hash_by_value():
    for make in (lambda: lt.from_gram([[2, 1], [1, 2]]), cell,
                 lambda: orbits_of_norm(8)[1], lambda: sp.parse_spec("II(1,9) + (4)")):
        a, b = make(), make()
        assert a is not b and hash(a) == hash(b) and len({a, b}) == 1


def test_reading_a_cache_changes_neither_equality_nor_hash():
    # a lattice's minors are built on first read and kept, a witness's
    # bordered lattice with the witness; an orbit keeps no complement
    assert not hasattr(orbits_of_norm(12)[0], "complement")
    read, unread = lt.from_gram([[2, 1], [1, -4]]), lt.from_gram([[2, 1], [1, -4]])
    before = hash(read)
    assert read.minors == (1, 2, -9) and lt.determinant(read) == -9
    assert hash(read) == before == hash(unread) and read == unread
    read, unread = ExtensionWitness(unread, (1, 0), 0), ExtensionWitness(unread, (1, 0), 0)
    before = hash(read)
    assert read.det_s1 == read.s1.minors[-1] == 4
    assert hash(read) == before == hash(unread) and read == unread


def test_immutable_types_reject_attribute_assignment():
    orbit = orbits_of_norm(4)[0]
    cases = [(lt.E8, "gram"), (lt.discriminant_group(lt.rank1(4)), "order"),
             (orbit, "two_n"), (orbit, "root_count_u"), (cell(), "count"),
             (sp.Named("E8"), "name"),
             (lt.E8, "minors"), (ExtensionWitness(lt.rank1(2), (1,), 0), "d_norm"),
             (ExtensionWitness(lt.rank1(2), (1,), 0), "s1")]
    for record, name in cases:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert orbit.two_n == 4 and lt.E8.rank == 8


def test_norm_histograms_are_mutable_and_own_their_counts():
    a, b = NormHistogram(), NormHistogram()
    assert a.counts is not b.counts
    a.counts[Fraction(2)] = 5
    assert b.counts == {} and b.total == 0 and a.total == 5
    assert a != b
    with pytest.raises(AttributeError):
        a.vectors = []
    with pytest.raises(TypeError):
        hash(a)


def test_lattice_validation_and_repr():
    with pytest.raises(ValueError, match="symmetric"):
        lt.Lattice(((2, 1), (0, 2)))
    with pytest.raises(ValueError, match="one pairing per basis vector"):
        ExtensionWitness(lt.rank1(2), (1, 2), 0)
    assert repr(lt.E8) == "Lattice(rank=8, det=1)"
    assert repr(lt.from_gram([[0, 1], [1, 0]])) == "Lattice(rank=2, det=-1)"


def test_records_construct_by_position_or_keyword_and_survive_copies():
    assert DivisorCell(1, Fraction(-1, 2), 3, True) == cell()
    assert repr(cell()) == "DivisorCell(k=1, norm=Fraction(-1, 2), count=3, vanishing=True)"
    with pytest.raises(TypeError):
        DivisorCell(1, Fraction(-1, 2), 3)
    with pytest.raises(TypeError):
        DivisorCell(1, Fraction(-1, 2), 3, True, k=2)
    orbit = orbits_of_norm(6)[0]
    for record in (lt.E8, cell(), orbit, sp.parse_spec("-E8 + gram:x.txt")):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
