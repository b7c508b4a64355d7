import random
import sys

import pytest

from k3lat import lattice as lt
from k3lat import specparse as sp
from k3lat.errors import SpecSyntaxError


def test_rank1_plus_negated_e8():
    lat = sp.lattice_from_text("(-2) + -E8")
    assert lat.rank == 9
    assert lt.determinant(lat) == -2


def test_ii_2_26_decomposition():
    built = sp.lattice_from_text("-E8 + -E8 + -E8 + H + H")
    assert built.gram == lt.ii(2, 26).gram
    assert lt.signature(built) == (2, 26)
    assert lt.determinant(built) == 1


def test_ii_1_17_same_gram_as_sum():
    assert sp.lattice_from_text("II(1,17)").gram == \
        sp.lattice_from_text("H + -E8 + -E8").gram


def test_whitespace_insensitive():
    a = sp.parse_spec("(-2)+-E8+H")
    b = sp.parse_spec("  ( -2 )  +  - E8 + H ")
    assert a == b


def test_syntax_errors_carry_offsets():
    with pytest.raises(SpecSyntaxError) as err:
        sp.parse_spec("E8 + ")
    assert err.value.offset == 5
    with pytest.raises(SpecSyntaxError) as err:
        sp.parse_spec("(-E8)")
    assert err.value.offset == 1  # the failed integer token starts at '-'
    with pytest.raises(SpecSyntaxError) as err:
        sp.parse_spec("E8 H")
    assert err.value.offset == 3
    with pytest.raises(SpecSyntaxError, match=r"II\(4,20\) is not one of"):
        sp.parse_spec("II(4,20)")
    with pytest.raises(SpecSyntaxError):
        sp.parse_spec("E9")
    with pytest.raises(SpecSyntaxError, match=r"expected '\)'") as err:
        sp.parse_spec("(2")
    assert err.value.offset == 2
    # more digits than int() takes is no integer, at the token's start
    with pytest.raises(SpecSyntaxError, match="expected an integer") as err:
        sp.parse_spec("E8 + (" + "7" * (sys.get_int_max_str_digits() + 1) + ")")
    assert err.value.offset == 6
    for text, offset in (("gram:", 5), ("gram:  + E8", 7)):
        with pytest.raises(SpecSyntaxError, match="expected a file path after gram:") as err:
            sp.parse_spec(text)
        assert err.value.offset == offset


def test_odd_rank1_accepted_but_odd():
    lat = sp.lattice_from_text("(3)")
    assert lat.even is False
    assert sp.lattice_from_text("(0)").rank == 1  # degenerate; ops reject later


def test_gram_file_atom(tmp_path):
    path = tmp_path / "m.gram"
    path.write_text("2\n8 4\n4 0\n")
    spec = sp.parse_spec(f"gram:{path} + H")
    lat = sp.evaluate(spec)
    assert lat.rank == 4
    assert lt.determinant(lat) == 16  # -16 * det(H)


def random_spec(rng):
    atoms = [
        lambda: sp.Named(rng.choice(["E8", "E7", "E6", "H"])),
        lambda: sp.Standard(*rng.choice([(1, 1), (1, 9), (1, 17), (2, 26), (3, 19)])),
        lambda: sp.Rank1(rng.randint(-9, 9)),
        lambda: sp.GramFile(f"some/path_{rng.randint(0, 9)}.gram"),
    ]
    terms = tuple(sp.Term(rng.random() < 0.5, rng.choice(atoms)())
                  for _ in range(rng.randint(1, 5)))
    return sp.LatticeSpec(terms)


def test_print_parse_roundtrip():
    rng = random.Random(59)
    for _ in range(200):
        spec = random_spec(rng)
        assert sp.parse_spec(sp.print_spec(spec)) == spec


def test_canonical_print():
    spec = sp.parse_spec("(-2) + -E8")
    assert sp.print_spec(spec) == "(-2) + -E8"
    assert sp.print_spec(sp.parse_spec("II(1,9)+H")) == "II(1,9) + H"
