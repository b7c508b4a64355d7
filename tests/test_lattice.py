import random
from fractions import Fraction
from math import gcd

import pytest

from k3lat import intlinalg as la
from k3lat import lattice as lt
from k3lat.errors import (
    DegenerateLatticeError,
    GramFileError,
    NonPrimitiveSublatticeError,
    ZeroVectorError,
)

HIGHEST_ROOT = (2, 3, 4, 6, 5, 4, 3, 2)


def jacobi_signature(gram):
    """Oracle: sign changes in the leading principal minor sequence.

    Only valid when every leading minor is nonzero, so callers pick inputs
    accordingly (permuting H's basis does not help; use shifted bases).
    """
    minors = [1]
    for k in range(1, len(gram) + 1):
        sub = [row[:k] for row in gram[:k]]
        minors.append(la.bareiss_determinant(sub))
    assert all(m != 0 for m in minors)
    neg = sum(1 for a, b in zip(minors, minors[1:]) if a * b < 0)
    return len(gram) - neg, neg


def test_determinant_examples():
    assert lt.determinant(lt.from_gram([[8, 4], [4, 0]])) == -16
    assert lt.determinant(lt.from_gram([[2]])) == 2
    assert lt.determinant(lt.E8) == 1


def test_signature_examples():
    assert lt.signature(lt.H) == (1, 1)
    assert lt.signature(lt.ii(2, 26)) == (2, 26)
    two_e8neg = lt.direct_sum(lt.rank1(2), lt.rescale(lt.E8))
    assert lt.signature(two_e8neg) == (1, 8)
    assert jacobi_signature([list(r) for r in two_e8neg.gram]) == (1, 8)


def test_signature_rejects_degenerate():
    with pytest.raises(DegenerateLatticeError):
        lt.signature(lt.from_gram([[0]]))
    with pytest.raises(DegenerateLatticeError):
        lt.signature(lt.from_gram([[2, 2], [2, 2]]))


def test_degeneracy_is_found_exactly_when_the_determinant_is_zero():
    # signature, discriminant_group and dual_basis detect degeneracy in their
    # own elimination; Bareiss decides it independently here.
    rng = random.Random(29)
    degenerate = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-1, 1)
        lat = lt.from_gram(g)
        det = lt.determinant(lat)
        if det == 0:
            degenerate += 1
            for compute in (lt.signature, lt.discriminant_group, lt.dual_basis):
                with pytest.raises(DegenerateLatticeError, match="determinant 0"):
                    compute(lat)
            continue
        pos, neg = lt.signature(lat)
        assert pos + neg == n and (-1) ** neg == (1 if det > 0 else -1)
        assert lt.discriminant_group(lat).order == abs(det)
        assert len(lt.dual_basis(lat)) == n
    assert 60 <= degenerate <= 540


def test_signature_additivity():
    rng = random.Random(19)
    pool = [lt.E8, lt.rescale(lt.E8), lt.H, lt.E7, lt.rank1(2), lt.rank1(-6)]
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        sa, sb = lt.signature(a), lt.signature(b)
        ssum = lt.signature(lt.direct_sum(a, b))
        assert ssum == (sa[0] + sb[0], sa[1] + sb[1])


def test_discriminant_group_examples():
    assert lt.discriminant_group(lt.E8).divisors == ()
    for n in (1, 2, 5):
        dg = lt.discriminant_group(lt.rank1(2 * n))
        assert dg.divisors == (2 * n,)
        assert dg.generators[0] == (Fraction(1, 2 * n),)
    assert lt.discriminant_group(lt.E7).divisors == (2,)


def test_discriminant_group_properties():
    rng = random.Random(23)
    pool = [lt.E6, lt.E7, lt.E8, lt.H, lt.ii(1, 9),
            lt.rank1(4), lt.rank1(-6), lt.from_gram([[8, 4], [4, 0]])]
    for _ in range(15):
        lat = lt.direct_sum(rng.choice(pool), rng.choice(pool))
        dg = lt.discriminant_group(lat)
        assert dg.order == abs(lt.determinant(lat))
        prod = 1
        for d in dg.divisors:
            prod *= d
        assert prod == dg.order
        for a, b in zip(dg.divisors, dg.divisors[1:]):
            assert b % a == 0
        gram = [list(r) for r in lat.gram]
        for d, gen in zip(dg.divisors, dg.generators):
            # generator lies in the dual lattice and d kills it in L'/L
            pairings = la.vec_mat(list(gen), gram)
            assert all(p.denominator == 1 for p in map(Fraction, pairings))
            assert all((d * c).denominator == 1 for c in gen)
            assert any(c.denominator > 1 for c in gen)


def test_dual_basis():
    assert lt.dual_basis(lt.from_gram([[2]])) == [(Fraction(1, 2),)]
    assert lt.dual_basis(lt.H) == [(0, 1), (1, 0)]
    dual = lt.dual_basis(lt.E8)
    assert all(f.denominator == 1 for row in dual for f in row)
    gram = [list(r) for r in lt.E8.gram]
    prod = la.mat_mul([list(r) for r in dual], gram)
    assert prod == la.identity(8)


def test_orthogonal_complement_of_root():
    comp = lt.orthogonal_complement(lt.E8, lt.sublattice(lt.E8, [HIGHEST_ROOT]))
    assert comp.rank == 7
    assert abs(lt.determinant(comp)) == 2
    from k3lat.shortvec import root_count
    assert root_count(comp) == 126


def test_orthogonal_complement_h_inside_hh():
    hh = lt.direct_sum(lt.H, lt.H)
    comp = lt.orthogonal_complement(hh, lt.sublattice(hh, [[1, 0, 0, 0],
                                                           [0, 1, 0, 0]]))
    assert comp.gram == lt.H.gram


def test_orthogonal_complement_rejects_imprimitive():
    doubled = [2 * c for c in HIGHEST_ROOT]
    with pytest.raises(NonPrimitiveSublatticeError):
        lt.orthogonal_complement(lt.E8, lt.sublattice(lt.E8, [doubled]))


def test_complement_determinant_in_unimodular_ambient():
    rng = random.Random(31)
    for ambient in (lt.E8, lt.ii(1, 9)):
        hits = 0
        while hits < 8:
            v = [rng.randint(-3, 3) for _ in range(ambient.rank)]
            if not any(v):
                continue
            g = 0
            for c in v:
                g = gcd(g, c)
            v = [c // g for c in v]
            sub = lt.sublattice(ambient, [v])
            if lt.determinant(sub) == 0:
                continue
            comp = lt.orthogonal_complement(ambient, sub)
            assert abs(lt.determinant(comp)) == abs(lt.determinant(sub))
            hits += 1


def test_constructors():
    two26 = lt.ii(2, 26)
    assert two26.rank == 28
    assert lt.determinant(two26) == 1
    assert lt.signature(two26) == (2, 26)
    assert lt.ii(1, 17).gram == lt.direct_sum(lt.H, lt.rescale(lt.E8),
                                              lt.rescale(lt.E8)).gram
    assert abs(lt.determinant(lt.ii(1, 17))) == 1
    neg = lt.rescale(lt.E8)
    assert all(neg.gram[i][j] == -lt.E8.gram[i][j] for i in range(8)
               for j in range(8))
    with pytest.raises(ValueError):
        lt.ii(4, 20)


def test_even_flag():
    assert lt.E8.even
    assert lt.rank1(3).even is False
    assert lt.rank1(-4).even


def test_is_primitive_vector():
    assert lt.is_primitive_vector(lt.E8, HIGHEST_ROOT)
    assert not lt.is_primitive_vector(lt.E8, [2 * c for c in HIGHEST_ROOT])
    with pytest.raises(ZeroVectorError):
        lt.is_primitive_vector(lt.E8, [0] * 8)


def test_gram_file_roundtrip(tmp_path):
    path = tmp_path / "g.gram"
    path.write_text("2\n8 4\n4 0\n")
    lat = lt.load_gram_file(path)
    assert lt.determinant(lat) == -16
    bad = tmp_path / "bad.gram"
    bad.write_text("2\n8 4\n3 0\n")
    with pytest.raises(GramFileError):
        lt.load_gram_file(bad)
    short = tmp_path / "short.gram"
    short.write_text("3\n1 0 0\n0 1 0\n")
    with pytest.raises(GramFileError):
        lt.load_gram_file(short)
