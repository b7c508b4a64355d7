import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from k3lat import intlinalg as la
from k3lat import lattice as lt
from k3lat.e8 import orbits_of_norm
from k3lat.errors import IndefiniteLatticeError, NotPositiveDefiniteError
from k3lat.shortvec import NormHistogram, rational_cholesky, root_count, short_vectors


def box_search(gram, bound, offset=None, exclusive=False):
    """Independent oracle: exhaust an axis box that provably contains all
    solutions (x_i + c_i squared is at most bound * (G^-1)_ii)."""
    r = len(gram)
    bound = Fraction(bound)
    offset = [Fraction(c) for c in (offset or [0] * r)]
    ginv = la.fraction_inverse(gram)
    ranges = []
    for i in range(r):
        radius = isqrt((bound * ginv[i][i]).__ceil__()) + 1
        lo = (-offset[i] - radius).__ceil__()
        hi = (-offset[i] + radius).__floor__()
        ranges.append(range(lo, hi + 1))
    counts = {}
    for x in product(*ranges):
        y = [xi + ci for xi, ci in zip(x, offset)]
        norm = la.pairing(gram, y, y)
        if norm < bound or (norm == bound and not exclusive):
            counts[norm] = counts.get(norm, 0) + 1
    return counts


def random_posdef(rng, rank, spread=2):
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rank)]
        if la.bareiss_determinant(b) != 0:
            return la.mat_mul(b, la.transpose(b))


def test_cholesky_examples():
    _, piv = rational_cholesky([[2]])
    assert piv == [Fraction(2)]
    with pytest.raises(NotPositiveDefiniteError):
        rational_cholesky([list(r) for r in lt.H.gram])
    lower, piv = rational_cholesky([list(r) for r in lt.E8.gram])
    assert len(piv) == 8 and all(p > 0 for p in piv)
    prod = Fraction(1)
    for p in piv:
        prod *= p
    assert prod == 1
    # reassemble G = L diag(d) L^T
    n = 8
    rebuilt = [[sum(lower[i][k] * piv[k] * lower[j][k] for k in range(n))
                for j in range(n)] for i in range(n)]
    assert rebuilt == [list(r) for r in lt.E8.gram]


def test_enumerate_e8_roots():
    hist = short_vectors(lt.E8.gram, Fraction(2))
    assert hist.counts == {Fraction(0): 1, Fraction(2): 240}


def test_enumerate_e7_roots():
    hist = short_vectors(lt.E7.gram, Fraction(2))
    assert hist.counts == {Fraction(0): 1, Fraction(2): 126}


def test_enumerate_e7_dual_coset():
    gen = lt.discriminant_group(lt.E7).generators[0]
    hist = short_vectors(lt.E7.gram, Fraction(2), offset=gen, exclusive=True)
    assert hist.counts == {Fraction(3, 2): 56}


def test_listing_is_sorted_and_within_bound():
    hist = short_vectors(lt.E8.gram, Fraction(4), collect=True)
    assert hist.vectors == sorted(hist.vectors)
    assert len(hist.vectors) == hist.total == 1 + 240 + 2160
    for v in hist.vectors[:50]:
        assert lt.E8.norm(v) <= 4


def test_plus_minus_symmetry():
    hist = short_vectors(lt.E7.gram, Fraction(6), collect=True)
    listed = set(hist.vectors)
    for norm, count in hist.counts.items():
        if norm != 0:
            assert count % 2 == 0
    for v in listed:
        assert tuple(-c for c in v) in listed


def test_offset_shift_invariance():
    rng = random.Random(2)
    gram = [list(r) for r in lt.E7.gram]
    offset = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(7)]
    base = short_vectors(lt.E7.gram, Fraction(3), offset=tuple(offset))
    shift = [rng.randint(-2, 2) for _ in range(7)]
    moved = tuple(o + s for o, s in zip(offset, shift))
    again = short_vectors(lt.E7.gram, Fraction(3), offset=moved)
    assert base.counts == again.counts


def test_bound_monotonicity():
    small = short_vectors(lt.E8.gram, Fraction(4))
    large = short_vectors(lt.E8.gram, Fraction(8))
    for norm, count in small.counts.items():
        assert large.counts[norm] == count


def test_exclusive_drops_the_boundary():
    incl = short_vectors(lt.E8.gram, Fraction(2))
    excl = short_vectors(lt.E8.gram, Fraction(2), exclusive=True)
    assert excl.counts == {Fraction(0): 1}
    assert incl.counts[Fraction(2)] == 240


def test_agrees_with_box_oracle():
    rng = random.Random(41)
    for _ in range(12):
        rank = rng.randint(1, 4)
        gram = random_posdef(rng, rank)
        bound = Fraction(rng.randint(1, 10))
        offset = None
        if rng.random() < 0.6:
            offset = tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                           for _ in range(rank))
        exclusive = rng.random() < 0.5
        got = short_vectors(tuple(map(tuple, gram)), bound,
                            offset=offset, exclusive=exclusive)
        want = box_search(gram, bound, offset=offset, exclusive=exclusive)
        assert got.counts == want


def test_count_only_matches_collect():
    a = short_vectors(lt.E7.gram, Fraction(4))
    b = short_vectors(lt.E7.gram, Fraction(4), collect=True)
    assert a.vectors is None
    assert a.counts == b.counts
    assert len(b.vectors) == b.total


def test_labelled_histogram_buckets_collected_vectors():
    # the form x -> (x, r) mod 2 for the root r = e_0 of E8
    gram = [list(row) for row in lt.E8.gram]
    root = [1, 0, 0, 0, 0, 0, 0, 0]
    form = tuple(la.vec_mat(root, gram))
    for bound, exclusive in ((Fraction(4), False), (Fraction(6), True)):
        listed = short_vectors(lt.E8.gram, bound, exclusive=exclusive, collect=True)
        want = {}
        for x in listed.vectors:
            key = (la.pairing(gram, x, root) % 2, Fraction(lt.E8.norm(x)))
            want[key] = want.get(key, 0) + 1
        got = short_vectors(lt.E8.gram, bound, exclusive=exclusive, label=form, modulus=2)
        assert got.vectors is None
        assert got.counts == want
        assert got.total == listed.total
    # the 126 roots orthogonal to r and +-r pair evenly, the other 112 oddly
    assert got.counts[(0, Fraction(2))] == 128
    assert got.counts[(1, Fraction(2))] == 112


def test_labelled_histogram_with_offset_and_zero_rank():
    offset = tuple(lt.discriminant_group(lt.E7).generators[0])
    plain = short_vectors(lt.E7.gram, Fraction(4), offset=offset)
    labelled = short_vectors(lt.E7.gram, Fraction(4),
                             offset=offset, label=(1,) * 7, modulus=3)
    marginal = {}
    for (t, norm), count in labelled.counts.items():
        assert 0 <= t < 3
        marginal[norm] = marginal.get(norm, 0) + count
    assert marginal == plain.counts
    empty = short_vectors((), Fraction(1), label=(), modulus=5)
    assert empty.counts == {(0, Fraction(0)): 1}
    with pytest.raises(ValueError):
        short_vectors(lt.E7.gram, Fraction(2), label=(1,) * 6, modulus=2)
    with pytest.raises(ValueError):
        short_vectors(lt.E7.gram, Fraction(2), label=(1,) * 7)


def test_unlabelled_histograms_are_unchanged():
    # exact histograms, pinned: keys are Fractions, no vectors are kept
    cases = [
        ((lt.E8.gram, Fraction(6)),
         {Fraction(0): 1, Fraction(2): 240, Fraction(4): 2160, Fraction(6): 6720}),
        ((lt.E8.gram, Fraction(6), None, True),
         {Fraction(0): 1, Fraction(2): 240, Fraction(4): 2160}),
        ((lt.E7.gram, Fraction(4), lt.discriminant_group(lt.E7).generators[0]),
         {Fraction(3, 2): 56, Fraction(7, 2): 576}),
    ]
    for args, want in cases:
        hist = short_vectors(*args)
        assert hist == NormHistogram(counts=want)
        assert all(type(key) is Fraction for key in hist.counts)


def test_root_count_table_complements():
    by_roots = {}
    for two_n in (6, 10):
        (orbit,) = orbits_of_norm(two_n)
        by_roots[two_n] = root_count(orbit.complement)
    assert by_roots == {6: 74, 10: 60}


def test_root_count_rank1_and_signs():
    assert root_count(lt.rank1(4)) == 0
    assert root_count(lt.rank1(2)) == 2
    assert root_count(lt.rescale(lt.E8)) == 240  # negative definite input
    with pytest.raises(IndefiniteLatticeError):
        root_count(lt.H)


def test_zero_rank_histogram():
    hist = short_vectors((), Fraction(0))
    assert hist.counts == {Fraction(0): 1}
    assert NormHistogram().total == 0


def glue_model_e8_gram():
    """E8 Gram from an entirely different basis: the integer/half-integer
    coordinate model, basis = seven difference vectors plus the half-sum."""
    basis = []
    basis.append([Fraction(2)] + [Fraction(0)] * 7)
    for i in range(6):
        row = [Fraction(0)] * 8
        row[i], row[i + 1] = Fraction(-1), Fraction(1)
        basis.append(row)
    basis.append([Fraction(1, 2)] * 8)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    assert all(x.denominator == 1 for row in gram for x in row)
    return [[int(x) for x in row] for row in gram]


def test_counts_independent_of_e8_basis():
    # the basis is a free choice: any admissible Gram matrix of the same
    # lattice yields identical histograms
    other = glue_model_e8_gram()
    assert other != [list(r) for r in lt.E8.gram]
    assert la.bareiss_determinant(other) == 1
    ours = short_vectors(lt.E8.gram, Fraction(8))
    theirs = short_vectors(tuple(map(tuple, other)), Fraction(8))
    assert ours.counts == theirs.counts

    rng = random.Random(71)
    gram = [list(r) for r in lt.E8.gram]
    for _ in range(3):
        u = la.identity(8)
        for _ in range(12):
            i, j = rng.sample(range(8), 2)
            c = rng.randint(-1, 1)
            for col in range(8):
                u[i][col] += c * u[j][col]
        transformed = la.mat_mul(la.mat_mul(u, gram), la.transpose(u))
        hist = short_vectors(tuple(map(tuple, transformed)), Fraction(6))
        want = short_vectors(lt.E8.gram, Fraction(6))
        assert hist.counts == want.counts
