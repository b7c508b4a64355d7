import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm, prod

import pytest

from k3lat import intlinalg as la
from k3lat import lattice as lt
from k3lat.e8 import orbits_of_norm
from k3lat.errors import IndefiniteLatticeError, NotPositiveDefiniteError
from k3lat.shortvec import NormHistogram, rational_cholesky, root_count, short_vectors
from oracles import (determinant, e8_vectors, model_norm, simple_root_coordinates,
                     simple_root_pairings)


def box(gram, bound, offset):
    """An axis box that provably holds every x with norm(x + offset) <= bound:
    (x_i + c_i) squared is at most bound * (G^-1)_ii."""
    ginv = la.fraction_inverse(gram)
    ranges = []
    for i, c in enumerate(offset):
        radius = isqrt((bound * ginv[i][i]).__ceil__()) + 1
        ranges.append(range((-c - radius).__ceil__(), (-c + radius).__floor__() + 1))
    return ranges


def box_search(gram, bound, offset=None, exclusive=False, label=None, modulus=0):
    """Independent oracle: exhaust the box, with y = den * (x + offset) in
    integers. With a label form, key by (sum label_i x_i mod modulus, norm)."""
    bound = Fraction(bound)
    offset = [Fraction(c) for c in (offset or [0] * len(gram))]
    den = lcm(*(c.denominator for c in offset))
    shift = [int(c * den) for c in offset]
    counts = {}
    for x in product(*box(gram, bound, offset)):
        y = [den * xi + ci for xi, ci in zip(x, shift)]
        norm = Fraction(la.pairing(gram, y, y), den * den)
        if norm < bound or (norm == bound and not exclusive):
            key = norm if label is None else (
                sum(c * xi for c, xi in zip(label, x)) % modulus, norm)
            counts[key] = counts.get(key, 0) + 1
    return counts


def random_posdef(rng, rank, spread=2):
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rank)]
        if determinant(b) != 0:
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


def test_cholesky_reassembles_random_definite_grams():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        gram = random_posdef(rng, n)
        lower, piv = rational_cholesky(gram)
        assert all(p > 0 for p in piv)
        assert all(lower[i][i] == 1 and not any(lower[i][i + 1:]) for i in range(n))
        rebuilt = [[sum(lower[i][k] * piv[k] * lower[j][k] for k in range(n))
                    for j in range(n)] for i in range(n)]
        assert rebuilt == gram


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


def test_plus_minus_symmetry():
    # x and -x have the same norm and opposite labels. E7 is the part of E8
    # with no alpha_8 component, listed here from the coordinate model.
    listed = [c[:7] for c in map(simple_root_coordinates, e8_vectors(6)) if c[7] == 0]
    assert {tuple(-c for c in v) for v in listed} == set(listed)
    form = (1, 2, 0, -1, 3, 0, 1)
    want = {}
    for v in listed:
        key = (sum(a * b for a, b in zip(form, v)) % 5, Fraction(lt.E7.norm(v)))
        want[key] = want.get(key, 0) + 1
    hist = short_vectors(lt.E7.gram, Fraction(6), label=form, modulus=5)
    assert hist.counts == want
    for (t, norm), count in hist.counts.items():
        assert hist.counts[(-t % 5, norm)] == count
    for norm, count in short_vectors(lt.E7.gram, Fraction(6)).counts.items():
        if norm != 0:
            assert count % 2 == 0


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
    # Ranks 1..5 and bounds with denominators up to 4. The scaling clears
    # the products of consecutive leading minors, so include Gram matrices
    # whose minors (1, 2, 5, 8 in the first) do not divide one another.
    rng = random.Random(41)
    fixed = [[[2, 1, 0], [1, 3, 1], [0, 1, 2]], [[3, 1], [1, 2]]]
    unchained = 0
    for case in range(40):
        while True:  # a box of at most 20,000 points keeps the oracle short
            gram = fixed[case] if case < len(fixed) else random_posdef(rng, 1 + case % 5)
            den = rng.randint(1, 4)
            bound = Fraction(den * rng.randint(1, 8) + rng.choice((-1, 1)), den)
            offset = [Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in gram]
            if rng.random() < 0.4:
                offset = [0] * len(gram)
            if prod(map(len, box(gram, bound, offset))) <= 20_000:
                break
        minors = [la.bareiss_determinant([row[:k] for row in gram[:k]])
                  for k in range(len(gram) + 1)]
        unchained += any(y % x for x, y in zip(minors, minors[1:]))
        exclusive = rng.random() < 0.5
        got = short_vectors(tuple(map(tuple, gram)), bound,
                            offset=tuple(offset), exclusive=exclusive)
        assert got.counts == box_search(gram, bound, offset, exclusive)
    assert unchained >= 10


def test_labelled_zero_offset_agrees_with_box_oracle():
    # With no offset the enumerator lists one vector of each pair x, -x,
    # credits the other to label -t and adds the zero vector once. Ranks 1..5,
    # moduli 3..7 with labels t != -t, bounds with denominators 1..4, and
    # every third bound the norm of a basis vector, so attained.
    rng = random.Random(53)
    attained, asymmetric = {False: 0, True: 0}, 0
    for case in range(30):
        rank, modulus = 1 + case % 5, rng.randint(3, 7)
        exclusive = case % 2 == 1
        while True:
            gram = random_posdef(rng, rank, spread=1)
            if case % 3 == 0:
                i = rng.randrange(rank)
                bound = Fraction(gram[i][i])
            else:
                den = rng.randint(1, 4)
                bound = Fraction(den * rng.randint(2, 6) + rng.choice((-1, 1)), den)
            if prod(map(len, box(gram, bound, [0] * rank))) <= 20_000:
                break
        form = [rng.randint(-3, 3) for _ in range(rank)]
        form[rng.randrange(rank)] = rng.choice((1, -1))
        inclusive = box_search(gram, bound, label=form, modulus=modulus)
        want = {key: c for key, c in inclusive.items() if not exclusive or key[1] < bound}
        got = short_vectors(tuple(map(tuple, gram)), bound, exclusive=exclusive,
                            label=tuple(form), modulus=modulus)
        assert got.counts == want, (case, gram, bound, form, modulus)
        assert want[(0, Fraction(0))] == 1
        attained[exclusive] += any(norm == bound for _, norm in inclusive)
        asymmetric += any(2 * t % modulus for t, _ in want)
    assert min(attained.values()) >= 5 and asymmetric >= 20
    # bound 0: the zero vector alone, or nothing when the bound is strict
    gram = ((2, 1), (1, 3))
    want = box_search(gram, 0, label=(1, 2), modulus=5)
    assert want == {(0, Fraction(0)): 1}
    assert short_vectors(gram, Fraction(0), label=(1, 2), modulus=5).counts == want
    assert short_vectors(gram, Fraction(0), exclusive=True, label=(1, 2), modulus=5).counts == {}


def test_labelled_histogram_buckets_collected_vectors():
    # the form x -> (x, r) mod 2 for the simple root r = alpha_1 of E8,
    # against the coordinate model, where (x, alpha_1) is read off directly
    form = tuple(lt.E8.gram[0])
    for bound, exclusive in ((Fraction(4), False), (Fraction(6), True)):
        listed = e8_vectors(bound, exclusive)
        want = {}
        for y in listed:
            key = (simple_root_pairings(y)[0] % 2, Fraction(model_norm(y)))
            want[key] = want.get(key, 0) + 1
        got = short_vectors(lt.E8.gram, bound, exclusive=exclusive, label=form, modulus=2)
        assert got.counts == want
        assert got.total == len(listed)
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
    # exact histograms, pinned: keys are Fractions
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
