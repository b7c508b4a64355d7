import random
from fractions import Fraction

import pytest

from k3lat import intlinalg as la
from k3lat import lattice as lt
from k3lat import sbad
from k3lat.e8 import orbits_of_norm
from k3lat.errors import GramFileError, LatticeError
from k3lat.glue import coset_count_row
from oracles import rational_counts, vec_mat


def test_witness_examples():
    kummer = sbad.ExtensionWitness(s=lt.rank1(8), pairings=(4,), d_norm=0)
    assert kummer.det_s1 == -16
    assert sbad.is_sbad_extension(kummer)  # 16 <= 2 * 8

    ortho_root = sbad.ExtensionWitness(s=lt.rank1(8), pairings=(0,), d_norm=-2)
    assert abs(ortho_root.det_s1) == 2 * abs(ortho_root.det_s)
    assert sbad.is_sbad_extension(ortho_root)

    too_big = sbad.ExtensionWitness(s=lt.rank1(2), pairings=(0,), d_norm=-6)
    assert too_big.det_s1 == -12
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
        assert w.det_s1 == det * d_norm
        built += 1


def test_witness_invariant_under_basis_change():
    rng = random.Random(17)
    s = lt.from_gram([[8, 4], [4, 0]])
    pairings = (4, 2)
    d_norm = 0
    w = sbad.ExtensionWitness(s=s, pairings=pairings, d_norm=d_norm)
    base = "degenerate" if w.det_s1 == 0 else sbad.is_sbad_extension(w)
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
        assert ("degenerate" if w2.det_s1 == 0 else sbad.is_sbad_extension(w2)) == base


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
    # every nonzero cell's divisor norm nu_int - 2 must equal d - k^2/2n
    for two_n in range(2, 16, 2):
        for orbit in orbits_of_norm(two_n):
            for k, cells in rational_counts(coset_count_row(orbit)).items():
                for nu_int, count in cells.items():
                    if count == 0 or nu_int == 0:
                        continue
                    d = sbad.possible_extension_norms(two_n, k)
                    assert Fraction(d) - Fraction(k * k, two_n) == nu_int - 2


def test_bounded_search_finds_the_orthogonal_root():
    found = sbad.search_sbad_extensions(lt.rank1(2), 1, [-2, 0])
    assert any(w.pairings == (0,) and w.d_norm == -2 for w in found)
    for w in found:
        assert sbad.is_sbad_extension(w)


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
