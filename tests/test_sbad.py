import contextlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from k3lat import intlinalg as la
from k3lat import lattice as lt
from k3lat import sbad
from k3lat.e8 import orbits_of_norm
from k3lat.errors import GramFileError, LatticeError
from k3lat.glue import (CosetCountTable, DivisorCell, coset_count_row, divisor_classes,
                        hyperplane_multiplicity)
from oracles import rational_counts, vec_mat


def test_witness_examples():
    kummer = sbad.ExtensionWitness(s=lt.rank1(8), pairings=(4,), d_norm=0)
    assert lt.determinant(kummer.s1) == -16
    assert sbad.is_sbad_extension(kummer)  # 16 <= 2 * 8

    ortho_root = sbad.ExtensionWitness(s=lt.rank1(8), pairings=(0,), d_norm=-2)
    assert lt.determinant(ortho_root.s1) == -2 * lt.determinant(ortho_root.s)  # -16 = -2 * 8
    assert sbad.is_sbad_extension(ortho_root)

    too_big = sbad.ExtensionWitness(s=lt.rank1(2), pairings=(0,), d_norm=-6)
    assert lt.determinant(too_big.s1) == -12
    assert not sbad.is_sbad_extension(too_big)


def test_witness_error_paths():
    with pytest.raises(LatticeError, match="S must be nondegenerate"):
        sbad.is_sbad_extension(
            sbad.ExtensionWitness(s=lt.from_gram([[0]]), pairings=(1,), d_norm=0))
    with pytest.raises(LatticeError, match="bordered lattice is degenerate"):
        sbad.is_sbad_extension(
            sbad.ExtensionWitness(s=lt.rank1(2), pairings=(0,), d_norm=0))
    wrong_sig = sbad.ExtensionWitness(s=lt.rank1(8), pairings=(0,), d_norm=2)
    assert not sbad.is_sbad_extension(wrong_sig)  # S1 is (2, 0), not Lorentzian


def test_bordered_determinant_identity():
    rng = random.Random(13)
    built = 0
    while built < 12:
        rank = rng.randint(1, 4)
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        lat = lt.from_gram(g)
        det = lt.determinant(lat)
        if det == 0:
            continue
        d_norm = rng.choice([-6, -4, -2, 2, 4])
        w = sbad.ExtensionWitness(s=lat, pairings=(0,) * rank, d_norm=d_norm)
        assert lt.determinant(w.s1) == det * d_norm
        built += 1


def test_witness_invariant_under_basis_change():
    rng = random.Random(17)
    s = lt.from_gram([[8, 4], [4, 0]])
    pairings = (4, 2)
    d_norm = 0
    w = sbad.ExtensionWitness(s=s, pairings=pairings, d_norm=d_norm)
    base = "degenerate" if lt.determinant(w.s1) == 0 else sbad.is_sbad_extension(w)
    for _ in range(10):
        u = la.identity(2)
        for _ in range(4):
            i, j = rng.sample(range(2), 2)
            c = rng.randint(-2, 2)
            for col in range(2):
                u[i][col] += c * u[j][col]
        new_gram = la.mat_mul(la.mat_mul(u, [list(r) for r in s.gram]),
                              la.transpose(u))
        new_pairings = tuple(vec_mat(list(pairings), la.transpose(u)))
        w2 = sbad.ExtensionWitness(s=lt.from_gram(new_gram),
                                   pairings=new_pairings, d_norm=d_norm)
        degenerate = lt.determinant(w2.s1) == 0
        assert ("degenerate" if degenerate else sbad.is_sbad_extension(w2)) == base


def test_polarized_bad_examples():
    assert sbad.polarized_bad(1, -2, 0)
    assert sbad.polarized_bad(4, 0, 4)
    assert not sbad.polarized_bad(2, 2, 1)
    # 2n times the projected norm: -2 at 2n = 8, and 7/4 at 2n = 4
    assert sbad.projected_norm(4, 0, 4) == -16 and sbad.projected_norm(2, 2, 1) == 7


def test_polarized_shift_invariance():
    for n in (1, 2, 3, 5, 7):
        for k in range(-5, 6):
            for d in range(-8, 9, 2):
                base = sbad.polarized_bad(n, d, k)
                for m in range(-3, 4):
                    shifted = sbad.polarized_bad(n, d + 2 * k * m + 2 * n * m * m,
                                                 k + 2 * n * m)
                    assert shifted == base


def test_polarization_degrees_must_be_positive():
    for n in (0, -1, -4):
        with pytest.raises(ValueError, match="polarization degree must be positive"):
            sbad.polarized_bad(n, 0, 1)
        with pytest.raises(ValueError, match="polarization degree must be positive"):
            sbad.normalize_degree(n, 1)
    for two_n in (0, -2, 3, 7):
        with pytest.raises(ValueError, match="two_n must be a positive even integer"):
            sbad.possible_extension_norms(two_n, 1)


def test_normalize_degree():
    assert sbad.normalize_degree(3, 7) == 1
    assert sbad.normalize_degree(3, -1) == 1
    assert sbad.normalize_degree(5, 5) == 5
    assert sbad.normalize_degree(4, 8) == 0
    for n in (1, 2, 3, 5):
        for k in range(-3 * n, 3 * n + 1):
            r = sbad.normalize_degree(n, k)
            assert 0 <= r <= n
            assert (k - r) % (2 * n) == 0 or (k + r) % (2 * n) == 0


def test_possible_extension_norms_examples():
    assert sbad.possible_extension_norms(4, 1) == 0
    assert sbad.possible_extension_norms(2, 0) == -2
    assert sbad.possible_extension_norms(12, 5) == 2
    assert sbad.possible_extension_norms(8, 4) == 0
    for two_n in range(2, 62, 2):
        for k in range(-40, 41):
            d = sbad.possible_extension_norms(two_n, k)
            assert d % 2 == 0 and -2 <= d - Fraction(k * k, two_n) < 0, (two_n, k)


def test_possible_extension_norms_match_table_cells():
    # The divisor window is one fact written twice. glue reads the cell of
    # label k at 4n - r for r = k^2 mod 4n, and none where r = 0; sbad states
    # it as the even d with -2 <= d - k^2/2n < 0, the cell 2n d - k^2 + 4n.
    # And glue folds the labels of a dual line's scales as normalize_degree
    # does. Both read only two_n and counts, so past 2n = 40 a row with no
    # counts serves.
    for two_n in range(2, 201, 2):
        n = two_n // 2
        rows = ([coset_count_row(orbit) for orbit in orbits_of_norm(two_n)] if two_n <= 40
                else [CosetCountTable(two_n, None, 0, {}, {})])
        for row in rows:
            cells = {cell.k: cell for cell in divisor_classes(row)}
            for k in range(n + 1):
                d = sbad.possible_extension_norms(two_n, k)
                key = sbad.projected_norm(n, d, k) + 2 * two_n
                if key == 0:
                    assert k not in cells, (two_n, k)
                else:
                    count = row.counts.get(k, {}).get(key, 0)
                    assert cells.pop(k) == DivisorCell(k, -key, count, count > 0), (two_n, k)
                scales = range(1, math.isqrt(2 * two_n) + 1)  # each c with -c^2 >= -4n
                report = hyperplane_multiplicity(row, k, -1)
                assert [(c.scale, c.label) for c in report.contributions] == [
                    (c, sbad.normalize_degree(n, c * k)) for c in scales], (two_n, k)
                # every nonzero cell of a row, but the zero vector's, is the one in the window
                for nu, count in rational_counts(row).get(k, {}).items():
                    if count and nu:
                        assert Fraction(d) - Fraction(k * k, two_n) == nu - 2, (two_n, k)
            assert cells == {}


def test_bounded_search_finds_the_orthogonal_root():
    found = sbad.search_sbad_extensions(lt.rank1(2), 1, [-2, 0])
    assert any(w.pairings == (0,) and w.d_norm == -2 for w in found)
    for w in found:
        assert sbad.is_sbad_extension(w)


def test_bounded_search_reduces_s_once(monkeypatch):
    # Over n borderings, S is reduced once for the whole search, not once per
    # bordering, and each bordered lattice once, for its verdict.
    s = lt.from_gram([[2, 1], [1, -4]])
    n = len(list(product([-2, 0], product(range(-1, 2), repeat=2))))
    reduced = []
    determinant = lt.determinant
    monkeypatch.setattr(lt, "determinant", lambda lat: reduced.append(lat) or determinant(lat))
    found = sbad.search_sbad_extensions(s, 1, [-2, 0])
    assert sum(lat == s for lat in reduced) == 1 and reduced[0] == s
    assert len(reduced) == 1 + n
    assert n == 18 and len(found) == 9


def test_bounded_search_builds_each_bordered_lattice_once(monkeypatch):
    # Each S1 is built once, by its verdict, and reduced for its determinant
    # and, unless it is degenerate, its signature; the search finds the
    # witnesses that the verdict of each bordering alone finds.
    s = lt.from_gram([[2, 1], [1, -4]])
    borderings = [sbad.ExtensionWitness(s, p, d) for d in (0, -2)
                  for p in product(range(-2, 3), repeat=2)]
    expected = []
    for w in borderings:
        with contextlib.suppress(LatticeError):  # a degenerate S1
            if sbad.is_sbad_extension(w):
                expected.append(w)
    reduced, built = [], []
    lagrange_reduction, from_gram = lt.lagrange_reduction, lt.from_gram
    monkeypatch.setattr(lt, "lagrange_reduction",
                        lambda m: reduced.append(len(m)) or lagrange_reduction(m))
    monkeypatch.setattr(lt, "from_gram", lambda g: built.append(len(g)) or from_gram(g))
    assert sbad.search_sbad_extensions(s, 2, (0, -2)) == expected
    assert (len(borderings), len(expected), len(built), len(reduced)) == (50, 25, 50, 85)



def test_witness_command_reduces_s_once_and_builds_s1_once(monkeypatch, capsys, tmp_path):
    # `sbad witness` prints the determinants that its verdict computes: S is
    # reduced once, and S1 is built once and reduced for its determinant and
    # its signature.
    from k3lat.cli import main
    path = tmp_path / "w.gram"
    path.write_text("1\n8\n4 0\n")
    reduced, built = [], []
    lagrange_reduction, from_gram = lt.lagrange_reduction, lt.from_gram
    monkeypatch.setattr(lt, "lagrange_reduction",
                        lambda m: reduced.append(len(m)) or lagrange_reduction(m))
    monkeypatch.setattr(lt, "from_gram", lambda g: built.append(len(g)) or from_gram(g))
    assert main(["sbad", "witness", "--gram", str(path), "--json"]) == 0
    assert '"det_s1": -16' in capsys.readouterr().out
    assert reduced == [1, 2, 2]
    assert built == [1, 2]

def test_witness_file(tmp_path):
    path = tmp_path / "w.gram"
    path.write_text("1\n8\n4 0\n")
    w = sbad.read_witness_file(path)
    assert w.s.gram == ((8,),)
    assert w.pairings == (4,) and w.d_norm == 0
    assert sbad.is_sbad_extension(w)

    bad = tmp_path / "bad.gram"
    for text in ("1\n8\n4\n", "", "1\n", "x\n8\n4 0\n", "-1\n0\n",
                 "1\n8\n4 0\n1 1\n", "2\n2 1\n1 2\n", "1\n8 1\n4 0\n",
                 "1\nx\n4 0\n", "1\n8\n4 x\n", "2\n2 1\n0 2\n1 1 0\n",
                 "1 1\n8\n4 0\n", "\ufeff1\n8\n4 0\n", "1\n\u0662\n4 0\n", "1\n8\n4 0_0\n"):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(GramFileError):
            sbad.read_witness_file(bad)
    # The Gram part of a witness is read up to its r rows: a line more is the
    # witness's own error.
    bad.write_text("1\n8\n4 0\n1 1\n", encoding="utf-8")
    with pytest.raises(GramFileError,
                       match="expected rank line, 1 Gram rows and one bordering row"):
        sbad.read_witness_file(bad)
    bad.write_bytes(b"1\n8\n4 0\xff\n")
    with pytest.raises(GramFileError, match="not a UTF-8 text file"):
        sbad.read_witness_file(bad)
    with pytest.raises(GramFileError, match="not a UTF-8 text file"):
        lt.load_gram_file(bad)


def test_bounded_search_skips_degenerate_borderings_but_not_a_degenerate_s():
    # (2) bordered by (0) with self-norm 0 is degenerate, and is skipped
    assert [(w.pairings, w.d_norm) for w in
            sbad.search_sbad_extensions(lt.rank1(2), 1, [0])] == [((-1,), 0), ((1,), 0)]
    # a degenerate S raises at the first witness, though every bordering of
    # the zero form of rank 2 is degenerate too
    for s in (lt.from_gram([[0]]), lt.from_gram([[0, 0], [0, 0]])):
        with pytest.raises(LatticeError, match="S must be nondegenerate"):
            sbad.search_sbad_extensions(s, 0, [0])
