"""Semantics of the package's record types: equality, hashing, immutability."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from k3lat import lattice as lt
from k3lat import specparse as sp
from k3lat.e8 import orbits_of_norm
from k3lat.glue import DivisorCell, EmbeddingReport, ScaleContribution
from k3lat.records import Record
from k3lat.sbad import ExtensionWitness
from k3lat.shortvec import NormHistogram

SRC = Path(__file__).resolve().parent.parent / "src" / "k3lat"


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


def test_records_hold_only_their_fields():
    # What a record derives from its fields is computed when read: a
    # lattice's invariants, a witness's bordered lattice s1; an orbit keeps
    # no complement. So reading them changes neither equality nor hash.
    assert lt.Lattice.__slots__ == ("gram",)
    assert ExtensionWitness.__slots__ == ("s", "pairings", "d_norm")
    kinds = Record.__subclasses__()
    assert {lt.Lattice, ExtensionWitness, DivisorCell, sp.Named} <= set(kinds)
    assert not [(kind, name) for kind in kinds for name in kind.__slots__
                if name.startswith("_")]
    assert not hasattr(orbits_of_norm(12)[0], "complement")
    s = lt.from_gram([[2, 1], [1, -4]])
    read, unread = lt.from_gram(s.gram), lt.from_gram(s.gram)
    before = hash(read)
    assert lt.determinant(read) == -9 and lt.signature(read) == (1, 1)
    assert hash(read) == before == hash(unread) and read == unread
    assert read._values() == (s.gram,)
    read, unread = ExtensionWitness(s, (1, 0), 0), ExtensionWitness(s, (1, 0), 0)
    before = hash(read)
    assert read.s1 == lt.from_gram([[2, 1, 1], [1, -4, 0], [1, 0, 0]])
    assert lt.determinant(read.s1) == 4
    assert read.s1 is not read.s1
    assert hash(read) == before == hash(unread) and read == unread
    assert read._values() == (s, (1, 0), 0) and ExtensionWitness(s, (1, 1), 0) != read


def test_immutable_types_reject_attribute_assignment():
    orbit = orbits_of_norm(4)[0]
    cases = [(lt.E8, "gram"), (lt.discriminant_group(lt.rank1(4)), "divisors"),
             (orbit, "two_n"), (orbit, "root_count_u"), (cell(), "count"),
             (sp.Named("E8"), "name"),
             (lt.E8, "rank"), (ExtensionWitness(lt.rank1(2), (1,), 0), "d_norm"),
             (ExtensionWitness(lt.rank1(2), (1,), 0), "s1")]
    for record, name in cases:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert orbit.two_n == 4 and lt.E8.rank == 8


def test_record_is_the_one_rule_of_equality_and_hashing():
    # Read from the source: every class of the package that declares
    # __slots__ derives from Record, and no class but Record defines __eq__
    # or __hash__, by a method or by an assignment such as __hash__ = None.
    def names(node):
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                yield stmt.name
            elif isinstance(stmt, ast.Assign):
                yield from (t.id for t in stmt.targets if isinstance(t, ast.Name))

    classes = [(path.name, node) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    defined = {(file, node.name): set(names(node)) for file, node in classes}
    assert {"__slots__", "__eq__", "__hash__"} <= defined["records.py", "Record"]
    assert "__slots__" in defined["shortvec.py", "NormHistogram"]
    others = [(file, node) for file, node in classes if node.name != "Record"]
    assert not [(file, node.name) for file, node in others
                if "__slots__" in defined[file, node.name]
                and "Record" not in map(ast.unparse, node.bases)]
    assert not [(file, node.name) for file, node in others
                if {"__eq__", "__hash__"} & defined[file, node.name]]


def test_norm_histograms_are_mutable_and_own_their_counts():
    a, b = NormHistogram({}), NormHistogram({})
    assert a.counts is not b.counts
    a.counts[Fraction(2)] = 5
    assert b.counts == {} and b.total == 0 and a.total == 5
    assert a != b and a == NormHistogram({Fraction(2): 5})
    assert repr(a) == "NormHistogram(counts={Fraction(2, 1): 5})"
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
