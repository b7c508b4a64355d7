import random
import sys
from fractions import Fraction
from itertools import product
from math import ceil, isqrt, prod

import pytest

from k3lat import intlinalg as la
from k3lat import lattice as lt
from k3lat.e8 import orbits_of_norm
from k3lat.glue import coset_count_row, dual_coset_counts
from k3lat.errors import LatticeError
from k3lat.shortvec import (NormHistogram, lll_reduce, rational_cholesky, root_count,
                            short_vectors, vector_count)
from oracles import (complement_lattice, determinant, e8_vectors, model_norm,
                     random_definite_grams, simple_root_coordinates, simple_root_pairings,
                     skewed_gram, vec_mat, vec_norm)


def box(gram, bound, exact=False):
    """An axis box that provably holds every x with norm(x) <= bound: x_i
    squared is at most bound * (G^-1)_ii = s. The radius is isqrt(ceil(s)) + 1,
    or with `exact` the ceiling of sqrt(ceil(s))."""
    ginv = la.fraction_inverse(gram)
    ranges = []
    for i in range(len(gram)):
        s = (bound * ginv[i][i]).__ceil__()
        radius = (isqrt(s - 1) + 1 if s else 0) if exact else isqrt(s) + 1
        ranges.append(range(-radius, radius + 1))
    return ranges


def box_search(gram, bound, exclusive=False, label=None, modulus=0, basis=None):
    """Independent oracle: exhaust the box. With a label form, key by
    (sum label_i x_i mod modulus, norm). With a unimodular `basis` H the box
    is the exact one of H G H^T, and each of its points x' is counted as
    x = x' H, so a reduced basis bounds the box while norms and labels are
    read on G."""
    bound = Fraction(bound)
    points = product(*box(gram, bound))
    if basis is not None:
        reduced = la.mat_mul(la.mat_mul(basis, gram), la.transpose(basis))
        points = (vec_mat(x, basis) for x in product(*box(reduced, bound, True)))
    counts = {}
    for x in points:
        norm = Fraction(vec_norm(x, gram))
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
    with pytest.raises(LatticeError, match="not positive definite"):
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
    # every norm is an integer: the keys are ints, equal to integral Fractions
    hist = short_vectors(lt.E8.gram, 2)
    assert all(type(key) is int for key in hist.counts)
    assert hist.counts == {Fraction(0): 1, Fraction(2): 240}


def test_vector_count_of_e8():
    # 1 + 240 + 2160: the zero vector, the roots and the 2160 vectors of norm 4
    assert vector_count(lt.E8.gram, 4) == 2401
    assert vector_count(lt.E8.gram, Fraction(7, 2)) == vector_count(lt.E8.gram, 2) == 241


def test_a_gram_matrix_that_is_not_symmetric_is_rejected():
    for gram in ([[2, 1], [0, 2]], [[2, 1, 0], [1, 2, 0], [0, 1, 2]]):
        with pytest.raises(ValueError, match="Gram matrix must be symmetric"):
            short_vectors(gram, 2)


def test_enumerate_e7_roots():
    hist = short_vectors(lt.E7.gram, Fraction(2))
    assert hist.counts == {Fraction(0): 1, Fraction(2): 126}


def test_enumerate_e7_dual_coset():
    # U = v-perp for a root v of E8 is E7, and the column k = 1 of its row is
    # the nontrivial coset of E7 in its dual: the 56 minimal vectors of norm 3/2
    assert dual_coset_counts(orbits_of_norm(2)[0], 1) == {Fraction(3, 2): 56}


def test_plus_minus_symmetry():
    # x and -x have the same norm and opposite labels. E7 is the part of E8
    # with no alpha_8 component, listed here from the coordinate model.
    listed = [c[:7] for c in map(simple_root_coordinates, e8_vectors(6)) if c[7] == 0]
    assert {tuple(-c for c in v) for v in listed} == set(listed)
    form = (1, 2, 0, -1, 3, 0, 1)
    want = {}
    for v in listed:
        key = (sum(a * b for a, b in zip(form, v)) % 5, Fraction(vec_norm(v, lt.E7.gram)))
        want[key] = want.get(key, 0) + 1
    hist = short_vectors(lt.E7.gram, Fraction(6), label=form, modulus=5)
    assert hist.counts == want
    for (t, norm), count in hist.counts.items():
        assert hist.counts[(-t % 5, norm)] == count
    for norm, count in short_vectors(lt.E7.gram, Fraction(6)).counts.items():
        if norm != 0:
            assert count % 2 == 0


def test_bound_monotonicity():
    small = short_vectors(lt.E8.gram, Fraction(4))
    large = short_vectors(lt.E8.gram, Fraction(8))
    for norm, count in small.counts.items():
        assert large.counts[norm] == count


def test_exclusive_drops_the_boundary():
    incl = short_vectors(lt.E8.gram, Fraction(2))
    excl = short_vectors(lt.E8.gram, ceil(Fraction(2)) - 1)
    assert excl.counts == {Fraction(0): 1}
    assert incl.counts[Fraction(2)] == 240


def test_agrees_with_box_oracle():
    # Ranks 1..5 and bounds with denominators up to 4, inclusive and
    # exclusive (a strict bound b is passed as ceil(b) - 1). The scaling clears the products of consecutive leading
    # minors, so include Gram matrices whose minors (1, 2, 5, 8 in the first)
    # do not divide one another.
    rng = random.Random(41)
    fixed = [[[2, 1, 0], [1, 3, 1], [0, 1, 2]], [[3, 1], [1, 2]]]
    unchained, modes = 0, {False: 0, True: 0}
    for case in range(40):
        while True:  # a box of at most 20,000 points keeps the oracle short
            gram = fixed[case] if case < len(fixed) else random_posdef(rng, 1 + case % 5)
            den = rng.randint(1, 4)
            bound = Fraction(den * rng.randint(1, 8) + rng.choice((-1, 1)), den)
            if prod(map(len, box(gram, bound))) <= 20_000:
                break
        minors = [la.bareiss_determinant([row[:k] for row in gram[:k]])
                  for k in range(len(gram) + 1)]
        unchained += any(y % x for x, y in zip(minors, minors[1:]))
        exclusive = rng.random() < 0.5
        modes[exclusive] += 1
        got = short_vectors(tuple(map(tuple, gram)), ceil(bound) - 1 if exclusive else bound)
        assert got.counts == box_search(gram, bound, exclusive)
    assert unchained >= 10 and min(modes.values()) >= 10


def test_labelled_zero_offset_agrees_with_box_oracle():
    # The enumerator lists one vector of each pair x, -x,
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
            if prod(map(len, box(gram, bound))) <= 20_000:
                break
        form = [rng.randint(-3, 3) for _ in range(rank)]
        form[rng.randrange(rank)] = rng.choice((1, -1))
        inclusive = box_search(gram, bound, label=form, modulus=modulus)
        want = {key: c for key, c in inclusive.items() if not exclusive or key[1] < bound}
        got = short_vectors(tuple(map(tuple, gram)), ceil(bound) - 1 if exclusive else bound,
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
    assert short_vectors(gram, ceil(Fraction(0)) - 1, label=(1, 2), modulus=5).counts == {}


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
        got = short_vectors(lt.E8.gram, ceil(bound) - 1 if exclusive else bound,
                            label=form, modulus=2)
        assert got.counts == want
        assert got.total == len(listed)
    # the 126 roots orthogonal to r and +-r pair evenly, the other 112 oddly
    assert got.counts[(0, Fraction(2))] == 128
    assert got.counts[(1, Fraction(2))] == 112


def test_labelled_histogram_with_offset_and_zero_rank():
    plain = short_vectors(lt.E7.gram, Fraction(4))
    labelled = short_vectors(lt.E7.gram, Fraction(4), label=(1,) * 7, modulus=3)
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
    # exact histograms, pinned: keys are ints, equal to integral Fractions
    cases = [
        (False, {Fraction(0): 1, Fraction(2): 240, Fraction(4): 2160, Fraction(6): 6720}),
        (True, {Fraction(0): 1, Fraction(2): 240, Fraction(4): 2160}),
    ]
    for exclusive, want in cases:
        hist = short_vectors(lt.E8.gram, ceil(Fraction(6)) - 1 if exclusive else Fraction(6))
        assert hist == NormHistogram(counts=want)
        assert all(type(key) is int for key in hist.counts)


def gram_schmidt_minors(gram):
    """Cohen's d_k = B_1 ... B_k and lam_kj = d_(j+1) mu_kj (0-based k > j),
    from a Gram-Schmidt over Fractions that shares no step with the library."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * norms[k]
                                         for k in range(j))) / norms[j]
        norms.append(Fraction(gram[i][i]) - sum(mu[i][k] ** 2 * norms[k] for k in range(i)))
    d = [Fraction(1)]
    for b in norms:
        d.append(d[-1] * b)
    return d, [[d[j + 1] * mu[i][j] for j in range(i)] for i in range(n)]


def test_lll_reduce_keeps_the_lattice_and_labels_and_reduces():
    # The label form follows the basis change H as c -> H c, and the
    # reduction does not depend on it: unit labels read off the columns of H,
    # which must be unimodular.
    rng = random.Random(16)
    grams = random_definite_grams(rng, 210)
    swapped = compared = 0
    for gram in grams:
        n = len(gram)
        unit = la.identity(n)
        d, lam, _ = lll_reduce(gram, [0] * n)
        assert d[-1] == determinant(gram)
        for k in range(1, n):
            for j in range(k):
                assert abs(2 * lam[k][j]) <= d[j + 1]
            # Lovasz with delta = 3/4, in Cohen's integers
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2
        h = la.transpose([lll_reduce(gram, e)[2] for e in unit])
        assert determinant(h) in (1, -1)
        reduced = la.mat_mul(la.mat_mul(h, gram), la.transpose(h))
        assert gram_schmidt_minors(reduced) == (d, [row[:i] for i, row in enumerate(lam)])
        swapped += h != unit
        # a labelled search to the shortest reduced basis vector, against the
        # box oracle on G where its box has at most 5,000 points
        label = [rng.randint(-20, 20) for _ in range(n)]
        modulus = rng.randint(2, 12)
        bound = min(reduced[i][i] for i in range(n))
        if prod(map(len, box(reduced, bound, True))) > 5_000:
            continue
        got = short_vectors(gram, bound, label=label, modulus=modulus)
        assert got.counts == box_search(gram, bound, label=label, modulus=modulus,
                                        basis=h), gram
        compared += 1
    assert swapped >= 150 and compared >= 150


def count_descend_calls(fn, budget):
    """fn() with every call of the enumerator's `descend` counted by a
    profile hook, which raises once the count passes the budget."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "descend":
            calls += 1
            if calls > budget:
                raise RuntimeError(f"descend ran more than {budget} times")

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def test_root_count_on_a_skewed_basis_stays_within_budget():
    # The enumerator LLL-reduces the basis it is given, so -E8 with entries of
    # 10^4 and more costs about what the standard basis costs. Searched on the
    # basis as given, this Gram takes more than 100,000 calls.
    minus = lt.rescale(lt.E8)
    roots, standard = count_descend_calls(lambda: root_count(minus), 10_000)
    assert roots == 240
    skewed = lt.from_gram(skewed_gram(minus.gram, random.Random(1), 10 ** 4))
    assert count_descend_calls(lambda: root_count(skewed), 2 * standard)[0] == 240


def sigma7(n):
    return sum(d ** 7 for d in range(1, n + 1) if n % d == 0)


def test_e8_plus_e8_counts_match_the_eisenstein_series():
    # The theta series of E8 + E8 is E4^2 = E8, the Eisenstein series of
    # weight 8, so it has 480 sigma_7(N) vectors of norm 2N: a closed form
    # for a search above rank 8, on the standard basis and on a skewed one.
    e8e8 = lt.direct_sum(lt.E8, lt.E8).gram
    want = {2 * n: 480 * sigma7(n) for n in (1, 2, 3)}
    assert want == {2: 480, 4: 61_920, 6: 1_050_240}
    assert short_vectors(e8e8, 6).counts == {0: 1, **want}
    skewed = skewed_gram(e8e8, random.Random(5), 10 ** 4)
    assert short_vectors(skewed, 4).counts == {0: 1, 2: 480, 4: 61_920}


def test_exclusive_bound_is_pruned_not_filtered():
    # Norms are integers, so the norms below an integer b are those up to
    # b - 1 and up to (2b - 1)/2, and the search is pruned there: a rational
    # bound is floored, and the histogram and the descend count are those of
    # the integer bound. A strict bound is passed as ceil(b) - 1.
    rng = random.Random(29)
    gram = random_posdef(rng, 5, spread=1)
    form = [rng.randint(-3, 3) for _ in gram]
    for g, b, kwargs in ((lt.E8.gram, 6, {}), (gram, 5, dict(label=form, modulus=5))):
        half = Fraction(2 * b - 1, 2)
        runs = [count_descend_calls(lambda: short_vectors(g, bound, **kwargs), 10_000)
                for bound in (b - 1, half, ceil(half) - 1)]
        assert runs[0][0].total > 1
        assert all(run == runs[0] for run in runs), [calls for _, calls in runs]
    # no positional argument beyond the bound: a stale offset fails loudly,
    # and so does the strict-bound keyword that the search no longer takes
    with pytest.raises(TypeError):
        short_vectors(gram, 2, [Fraction(1, 2)] * len(gram))
    with pytest.raises(TypeError):
        short_vectors(gram, 2, exclusive=True)


def test_table_rows_to_22_stay_within_descend_budget():
    # The rows of `table --to 22` each search to the largest norm 4n0 - 1
    # below 2 * 2n0: 1,844 calls, against 2,970 when the search ran to
    # 2 * 2n0 itself and dropped its leaves there.
    orbits = [o for two_n in range(2, 24, 2) for o in orbits_of_norm(two_n)]
    _, calls = count_descend_calls(lambda: [coset_count_row(o) for o in orbits], 1_900)
    assert calls <= 1_900


def test_root_count_table_complements():
    by_roots = {}
    for two_n in (6, 10):
        (orbit,) = orbits_of_norm(two_n)
        by_roots[two_n] = root_count(complement_lattice(orbit.representative))
    assert by_roots == {6: 74, 10: 60}


def test_root_count_rank1_and_signs():
    assert root_count(lt.rank1(4)) == 0
    assert root_count(lt.rank1(2)) == 2
    assert root_count(lt.rescale(lt.E8)) == 240  # negative definite input
    # indefinite, mixed signs on the diagonal, degenerate
    for gram in (lt.H.gram, [[2, 0], [0, -2]], [[-2, 0], [0, 2]], [[0]], [[-2, -2], [-2, -2]]):
        with pytest.raises(LatticeError, match="^Gram matrix is not positive definite$"):
            root_count(lt.from_gram(gram))


def test_root_count_by_blocks_matches_the_whole_enumeration(monkeypatch):
    # Block-diagonal Grams, odd blocks such as (1) and (1) + (1) among them,
    # with the blocks' basis vectors interleaved by a seeded permutation: the
    # count from the blocks is that of one search of the whole Gram, and each
    # search runs on one block.
    import k3lat.shortvec as sv

    rng = random.Random(31)
    searched = []
    monkeypatch.setattr(sv, "short_vectors", lambda gram, bound:
                        searched.append(len(gram)) or short_vectors(gram, bound))
    for trial in range(40):
        blocks = [rng.choice(([[1]], [[2]], [[1, 1], [1, 2]], lt.E8.gram))
                  if rng.random() < 0.4 else random_posdef(rng, rng.randint(1, 3), spread=1)
                  for _ in range(rng.randint(1, 4))]
        starts = [sum(len(b) for b in blocks[:i]) for i in range(len(blocks))]
        rank = sum(map(len, blocks))
        whole = [[0] * rank for _ in range(rank)]
        for start, b in zip(starts, blocks):
            for i, row in enumerate(b):
                whole[start + i][start:start + len(b)] = row
        order = rng.sample(range(rank), rank)
        gram = [[whole[i][j] for j in order] for i in order]
        expected = short_vectors(gram, 2).counts.get(2, 0)
        searched.clear()
        assert root_count(lt.from_gram(gram)) == expected, (trial, blocks)
        assert root_count(lt.rescale(lt.from_gram(gram))) == expected, (trial, blocks)
        assert max(searched) <= max(map(len, blocks)), (trial, blocks)
    assert root_count(lt.from_gram([[1, 0], [0, 1]])) == 4


def test_zero_rank_histogram():
    hist = short_vectors((), Fraction(0))
    assert hist.counts == {Fraction(0): 1}
    assert NormHistogram({}).total == 0


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
