import random
from fractions import Fraction
from math import gcd, prod

import pytest

from k3lat import e8, sbad
from k3lat import intlinalg as la
from k3lat import lattice as lt
from k3lat.errors import GramFileError, LatticeError
from k3lat.shortvec import root_count, short_vectors
from oracles import determinant, fraction_signature, random_definite_grams, vec_mat

HIGHEST_ROOT = (2, 3, 4, 6, 5, 4, 3, 2)


def jacobi_signature(gram):
    """Oracle: sign changes in the leading principal minor sequence.

    Only valid when every leading minor is nonzero, so callers pick inputs
    accordingly (permuting H's basis does not help; use shifted bases).
    """
    minors = [1]
    for k in range(1, len(gram) + 1):
        sub = [row[:k] for row in gram[:k]]
        minors.append(determinant(sub))
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
    with pytest.raises(LatticeError, match="determinant 0"):
        lt.signature(lt.from_gram([[0]]))
    with pytest.raises(LatticeError, match="determinant 0"):
        lt.signature(lt.from_gram([[2, 2], [2, 2]]))


def test_degeneracy_is_found_exactly_when_the_determinant_is_zero():
    # signature, discriminant_group and dual_basis detect degeneracy in their
    # own elimination; the forward Bareiss oracle decides it independently.
    rng = random.Random(29)
    degenerate = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-1, 1)
        lat = lt.from_gram(g)
        det = determinant(g)
        assert lt.determinant(lat) == det
        if det == 0:
            degenerate += 1
            for compute in (lt.signature, lt.discriminant_group, lt.dual_basis):
                with pytest.raises(LatticeError, match="determinant 0"):
                    compute(lat)
            continue
        pos, neg = lt.signature(lat)
        assert pos + neg == n and (-1) ** neg == (1 if det > 0 else -1)
        assert prod(lt.discriminant_group(lat).divisors) == abs(det)
        assert len(lt.dual_basis(lat)) == n
    assert 60 <= degenerate <= 540


def test_signature_agrees_with_the_fraction_reduction():
    # Zero-heavy symmetric matrices of rank 1..7; every third has an all-zero
    # diagonal, so the reduction must first replace e_i by e_i + e_j.
    rng = random.Random(53)
    kinds = {"definite": 0, "indefinite": 0, "degenerate": 0, "zero diagonal": 0}
    for t in range(1200):
        n = rng.randint(1, 7)
        zeros = rng.choice((0.3, 0.6, 0.85))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() > zeros:
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
        if t % 3 == 0:
            for i in range(n):
                g[i][i] = 0
        want = fraction_signature(g)
        if want is None:
            kinds["degenerate"] += 1
            with pytest.raises(LatticeError, match="determinant 0"):
                lt.signature(lt.from_gram(g))
            continue
        assert lt.signature(lt.from_gram(g)) == want
        kinds["zero diagonal" if t % 3 == 0 else "definite" if 0 in want else "indefinite"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_invariants_by_orthogonal_block_match_the_whole_matrix():
    # Block-diagonal Grams of definite, indefinite and degenerate blocks, the
    # zero block (0) among them, under a seeded simultaneous permutation of
    # rows and columns: `blocks` is a partition of the basis into connected
    # blocks with no nonzero entry between two of them, and the signature and
    # the determinant read block by block are those of the whole matrix, or
    # the same LatticeError when a block is degenerate. The root count from
    # the blocks is that of one search of the whole matrix when it is definite;
    # otherwise, degenerate or not, it is a LatticeError.
    rng = random.Random(32)
    pool = ([[0]], [[2, 2], [2, 2]], [[1, 1, 1], [1, 1, 1], [1, 1, 1]],  # degenerate
            lt.H.gram, [[2, 3], [3, 2]], lt.ii(1, 9).gram,  # indefinite
            [[-6]], lt.E8.gram, lt.rescale(lt.E7).gram, *random_definite_grams(rng, 7))
    kinds = {"degenerate": 0, "definite": 0, "indefinite": 0}
    for trial in range(300):
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        rank = sum(map(len, parts))
        whole, start = [[0] * rank for _ in range(rank)], 0
        for part in parts:
            for i, row in enumerate(part):
                whole[start + i][start:start + len(part)] = row
            start += len(part)
        order = rng.sample(range(rank), rank)
        gram = [[whole[i][j] for j in order] for i in order]
        found = lt.blocks(gram)
        assert sorted(i for block in found for i in block) == list(range(rank))
        where = {i: n for n, block in enumerate(found) for i in block}
        assert all(where[i] == where[j] for i in range(rank) for j in range(rank)
                   if gram[i][j]), (trial, found)
        for block in found:  # and no block splits further
            reached = [block[0]]
            for i in reached:
                reached += [j for j in block if gram[i][j] and j not in reached]
            assert sorted(reached) == block, (trial, block)
        lat = lt.from_gram(gram)
        assert lt.determinant(lat) == determinant(gram), trial
        want = fraction_signature(gram)
        if want in ((rank, 0), (0, rank)):
            sign = 1 if want[0] else -1
            whole = short_vectors([[sign * x for x in row] for row in gram], 2)
            assert root_count(lat) == whole.counts.get(2, 0), trial
        else:  # None when degenerate
            with pytest.raises(LatticeError, match="^Gram matrix is not positive definite$"):
                root_count(lat)
        if want is None:
            kinds["degenerate"] += 1
            with pytest.raises(LatticeError, match="^lattice has determinant 0$"):
                lt.signature(lat)
            continue
        assert lt.signature(lat) == want, trial
        kinds["definite" if 0 in want else "indefinite"] += 1
    assert min(kinds.values()) >= 30, kinds
    assert lt.blocks([]) == [] and lt.signature(lt.from_gram([])) == (0, 0)
    assert lt.determinant(lt.from_gram([])) == 1


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
        assert dg.generators[0] == (1,)  # the generator 1/2n
    assert lt.discriminant_group(lt.E7).divisors == (2,)


def test_discriminant_group_properties():
    rng = random.Random(23)
    pool = [lt.E6, lt.E7, lt.E8, lt.H, lt.ii(1, 9),
            lt.rank1(4), lt.rank1(-6), lt.from_gram([[8, 4], [4, 0]])]
    for _ in range(15):
        lat = lt.direct_sum(rng.choice(pool), rng.choice(pool))
        dg = lt.discriminant_group(lat)
        assert prod(dg.divisors) == abs(lt.determinant(lat))
        for a, b in zip(dg.divisors, dg.divisors[1:]):
            assert b % a == 0
        gram = [list(r) for r in lat.gram]
        for d, row in zip(dg.divisors, dg.generators):
            # the generator row/d lies in the dual lattice, d kills it in
            # L'/L, and it does not lie in L
            pairings = vec_mat(list(row), gram)
            assert all(p % d == 0 for p in pairings)
            assert all(type(c) is int for c in row)
            assert any(c % d for c in row)


def test_dual_basis():
    assert lt.dual_basis(lt.from_gram([[2]])) == [(Fraction(1, 2),)]
    assert lt.dual_basis(lt.H) == [(0, 1), (1, 0)]
    dual = lt.dual_basis(lt.E8)
    assert all(f.denominator == 1 for row in dual for f in row)
    gram = [list(r) for r in lt.E8.gram]
    prod = la.mat_mul([list(r) for r in dual], gram)
    assert prod == la.identity(8)


def test_orthogonal_complement_of_root():
    comp = lt.sublattice(lt.E8, lt.orthogonal_complement(lt.E8, [HIGHEST_ROOT]))
    assert comp.rank == 7
    assert abs(lt.determinant(comp)) == 2
    from k3lat.shortvec import root_count
    assert root_count(comp) == 126


def test_orthogonal_complement_h_inside_hh():
    hh = lt.direct_sum(lt.H, lt.H)
    rows = lt.orthogonal_complement(hh, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert lt.sublattice(hh, rows).gram == lt.H.gram


def test_bases_without_rows_or_columns():
    # the complement of the zero sublattice is the whole lattice
    assert lt.orthogonal_complement(lt.E8, []) == la.identity(8)
    # and in the rank-0 lattice, k empty rows span a lattice of rank k
    assert lt.sublattice(lt.from_gram([]), [[], []]).gram == ((0, 0), (0, 0))


def test_orthogonal_complement_rejects_imprimitive():
    doubled = [2 * c for c in HIGHEST_ROOT]
    with pytest.raises(LatticeError, match="proper finite-index subgroup of its saturation"):
        lt.orthogonal_complement(lt.E8, [doubled])


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
            comp = lt.sublattice(ambient, lt.orthogonal_complement(ambient, [v]))
            assert abs(lt.determinant(comp)) == abs(lt.determinant(sub))
            hits += 1


def test_a_sublattice_is_the_lattice_of_its_gram():
    # Equality and hashing read the Gram matrix alone: the complement built
    # from rows equals, and hashes as, the lattice of the same Gram.
    for v in (HIGHEST_ROOT, (1, 0, 0, 0, 0, 0, 0, 0), (3, 1, 4, 1, 5, 9, 2, 6)):
        rows = e8.complement_of(v)
        comp = lt.sublattice(lt.E8, rows)
        same = lt.from_gram([list(row) for row in comp.gram])
        assert comp == same and hash(comp) == hash(same)
        assert comp.gram == tuple(tuple(row) for row in la.mat_mul(
            la.mat_mul(rows, lt.E8.gram), la.transpose(rows)))
    assert lt.sublattice(lt.E8, [HIGHEST_ROOT]) == lt.rank1(2)


def test_inexact_entries_are_rejected_not_truncated():
    # A float or a non-integral Fraction is a TypeError wherever the library
    # takes integer entries; int() would truncate 2.5 to 2 and 7/2 to 3.
    inexact = (2.5, Fraction(7, 2), 2.0, Fraction(4, 1))
    for x in inexact:
        with pytest.raises(TypeError):
            lt.from_gram([[x]])
        with pytest.raises(TypeError):
            lt.Lattice(((x,),))
        with pytest.raises(TypeError):
            lt.sublattice(lt.E8, [[x, 0, 0, 0, 0, 0, 0, 0]])
        with pytest.raises(TypeError):
            lt.is_primitive_vector(lt.E8, [x, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(TypeError):
            e8.dominant_representative([x, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(TypeError):
            e8.complement_of([x, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(TypeError):
            sbad.search_sbad_extensions(lt.rank1(2), 1, [x])
    # integers of any type that has __index__ are taken as they are
    assert lt.from_gram([[True]]).gram == ((1,),)
    assert type(lt.Lattice([[2]]).gram[0][0]) is int


def test_basis_rows_of_the_wrong_length_are_rejected():
    for rows in ([[1, 0]], [[1] * 9], [HIGHEST_ROOT, [1] * 7]):
        with pytest.raises(ValueError, match="8 entries"):
            lt.sublattice(lt.E8, rows)
        with pytest.raises(ValueError, match="8 entries"):
            lt.orthogonal_complement(lt.E8, rows)


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
    with pytest.raises(LatticeError, match="zero vector has no primitivity"):
        lt.is_primitive_vector(lt.E8, [0] * 8)
    for lat, x in ((lt.E8, [1, 0]), (lt.E8, [1] * 9), (lt.rank1(2), [3, 5, 7])):
        with pytest.raises(ValueError, match=f"{lat.rank} entries"):
            lt.is_primitive_vector(lat, x)


def test_saturation_index():
    assert lt.saturation_index([[2, 0], [0, 3]]) == 6
    assert lt.saturation_index([[1, 1], [1, -1]]) == 2
    assert lt.saturation_index([[1, 2, 3]]) == 1 and lt.saturation_index([[4, 6, 0]]) == 2
    for rows in ([[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]], [[0, 0]]):
        with pytest.raises(ValueError, match="rows are dependent"):
            lt.saturation_index(rows)


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
    # A row after the r matrix rows is an error too, not ignored.
    extra = tmp_path / "extra.gram"
    extra.write_text("1\n2\n3 4\n")
    with pytest.raises(GramFileError) as raised:
        lt.load_gram_file(extra)
    assert str(raised.value) == f"{extra}: expected 1 matrix rows, found 2"
    with pytest.raises(GramFileError, match="expected 2 matrix rows, found 3"):
        lt.parse_gram_text("2\n8 4\n4 0\n\n1 1\n")
