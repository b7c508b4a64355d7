import random
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import pytest
from oracles import (bucketed_row, complement_lattice, determinant, random_unimodular,
                     rational_counts)

from k3lat import glue, intlinalg as la, lattice as lt, shortvec
from k3lat.e8 import orbits_of_norm
from k3lat.shortvec import short_vectors
from k3lat.errors import LatticeError


@pytest.fixture(scope="module")
def rows():
    out = []
    for two_n in range(2, 16, 2):
        for orbit in orbits_of_norm(two_n):
            out.append(glue.coset_count_row(orbit))
    return out


def row_for(rows, two_n, roots):
    (row,) = [r for r in rows if r.two_n == two_n and r.root_count == roots]
    return row


def test_nikulin_embeddable_examples():
    for two_n in (2, 8, 14):
        t = lt.direct_sum(lt.rank1(-two_n), lt.rescale(lt.E8),
                          lt.rescale(lt.E8), lt.H, lt.H)
        report = glue.nikulin_embeddable(t)
        assert report.embeddable and report.rank == 21
        assert report.min_generators == 1

    rank20 = lt.direct_sum(lt.H, lt.H, lt.rescale(lt.E8), lt.rescale(lt.E8))
    report = glue.nikulin_embeddable(rank20)
    assert report.embeddable and report.min_generators == 0

    synthetic = lt.direct_sum(lt.H, lt.H, *[lt.rank1(-2)] * 24)
    assert not glue.nikulin_embeddable(synthetic).embeddable

    with pytest.raises(LatticeError, match=r"expected signature \(2, q\), got \(1, 9\)"):
        glue.nikulin_embeddable(lt.ii(1, 9))


def test_row_examples(rows):
    four = row_for(rows, 4, 84)
    assert [four.column_totals[k] for k in range(3)] == [1, 64, 14]
    twelve = row_for(rows, 12, 46)
    assert [twelve.column_totals[k] for k in range(7)] == [1, 48, 30, 16, 3, 48, 10]
    eight_nonprim = row_for(rows, 8, 126)
    assert not eight_nonprim.orbit.primitive
    assert [eight_nonprim.column_totals[k] for k in range(5)] == [1, 0, 56, 0, 1]


def test_k0_column_is_exactly_one(rows):
    for row in rows:
        assert row.column_totals[0] == 1
        assert row.counts[0] == {Fraction(0): 1}


def test_cells_lift_to_even_norms(rows):
    for row in rows:
        # each cell is keyed by the integer 2n nu
        assert all(type(key) is int for cells in row.counts.values() for key in cells)
        for k, cells in rational_counts(row).items():
            for nu in cells:
                assert 0 <= nu < 2
                lift = nu + Fraction(k * k, row.two_n)
                assert lift.denominator == 1 and int(lift) % 2 == 0
                assert 0 <= lift <= row.two_n // 4 + 4


def test_oracle_equivalence_and_symmetry(rows):
    for row in rows:
        n, counts = row.two_n // 2, rational_counts(row)
        for k in range(0, 2 * row.two_n + 1):
            reduced = k % row.two_n
            if reduced > n:
                reduced = row.two_n - reduced
            oracle = glue.dual_coset_counts(row.orbit, k)
            assert oracle == counts.get(reduced, {}), (row.two_n, k)


def test_rows_match_bucketed_e8_oracle():
    # every orbit with 2n <= 22, the imprimitive 8*, 16* and 18* among them
    imprimitive = []
    for two_n in range(2, 24, 2):
        for orbit in orbits_of_norm(two_n):
            if not orbit.primitive:
                imprimitive.append(two_n)
            assert rational_counts(glue.coset_count_row(orbit)) == bucketed_row(orbit), (
                two_n, orbit.representative)
    assert imprimitive == [8, 16, 18]


def test_imprimitive_rows_match_oracle_columnwise():
    contents = []
    for two_n in (24, 32):
        for orbit in orbits_of_norm(two_n):
            if orbit.primitive:
                continue
            contents.append((two_n, gcd(*orbit.representative)))
            counts = rational_counts(glue.coset_count_row(orbit))
            for k in range(two_n // 2 + 1):
                assert counts[k] == glue.dual_coset_counts(orbit, k), (two_n, k)
    assert sorted(contents) == [(24, 2), (32, 2), (32, 4)]


def test_rows_beyond_the_golden_range_match_coset_oracle():
    # The rows enumerate pi(E8) on an LLL-reduced basis of Z^8/Z v0, labelled
    # by the class in U'/U. A column of the oracle is a coset a0 + U on the
    # HNF basis of U, enumerated as the slice t = 1 of U + Z a0 under another
    # integral form of rank 8; the fold x <-> -x takes that slice to t = -1.
    columns = 0
    for two_n in range(24, 42, 2):
        for orbit in orbits_of_norm(two_n):
            counts = rational_counts(glue.coset_count_row(orbit))
            for k in range(two_n // 2 + 1):
                assert counts[k] == glue.dual_coset_counts(orbit, k), (
                    two_n, orbit.representative, k)
                columns += 1
    assert columns == 426 + 26  # 26 orbits with 2n = 24..40, one k = 0 column each


def test_the_roots_of_e8_fill_their_cells_of_each_row():
    # A root x of E8 with (x, v) = k projects to the class k of U' with norm
    # 2 - k^2/2n: the cell 4n - k^2 of column r(k) = min(k mod 2n, -k mod 2n).
    # Cauchy-Schwarz gives k^2 <= 4n, and the roots with k = 0 are those of
    # U, which root_count_u takes from a closed form, not from the row. So
    # root_count_u plus those cells over 0 < |k| <= 2 sqrt(n) is 240: checked
    # on every orbit with 2n <= 160 and on a seeded sample of 200 up to 400.
    def roots(orbit):
        two_n, counts = orbit.two_n, glue.coset_count_row(orbit).counts
        edge = isqrt(2 * two_n)
        return orbit.root_count_u + sum(
            counts[min(k % two_n, -k % two_n)].get(2 * two_n - k * k, 0)
            for k in range(-edge, edge + 1) if k)

    every = [o for two_n in range(2, 162, 2) for o in orbits_of_norm(two_n)]
    rest = [o for two_n in range(162, 402, 2) for o in orbits_of_norm(two_n)]
    assert len(every) == 619
    for orbit in every + random.Random(12).sample(rest, 200):
        assert roots(orbit) == 240, (orbit.two_n, orbit.representative)


def test_the_vectors_of_e8_fill_their_cells_by_norm():
    # Theta decomposition of E8 along v: E8 has 240 sigma_3(j) vectors of norm
    # 2j, and one with (x, v) = k projects to the class k of U' with norm
    # 2j - k^2/2n, the cell 2j 2n - k^2 of column r(k), with k^2 <= 4nj by
    # Cauchy-Schwarz. The row holds the cells below norm 2. Those at 2 and
    # above come from a search of U' on the row's basis, Gram and labels, up
    # to norm 6, where for v = m v0 the cell of k = m t is (t mod 2n0,
    # 2j 2n0 - t^2), and empty unless m divides k.
    from k3lat.e8 import _pairings
    for orbit in (o for two_n in range(2, 62, 2) for o in orbits_of_norm(two_n)):
        two_n, counts = orbit.two_n, glue.coset_count_row(orbit).counts
        m = gcd(*orbit.representative)
        v0 = [x // m for x in orbit.representative]
        p, two_n0, basis = _pairings(v0), two_n // (m * m), glue._completion(v0)
        c = [sum(map(mul, p, b)) for b in basis]
        gram = [[two_n0 * sum(map(mul, bg, bj)) - ci * cj for bj, cj in zip(basis, c)]
                for bg, ci in zip(map(_pairings, basis), c)]
        far = short_vectors(gram, 6 * two_n0, label=c, modulus=two_n0).counts
        for j in (1, 2, 3):
            edge, total = isqrt(2 * j * two_n), 0
            for k in range(-edge, edge + 1):
                key = 2 * j * two_n - k * k
                if key < 2 * two_n:
                    total += counts[min(k % two_n, -k % two_n)].get(key, 0)
                elif k % m == 0:
                    total += far.get((k // m % two_n0, key // (m * m)), 0)
            sigma3 = sum(d ** 3 for d in range(1, j + 1) if j % d == 0)
            assert total == 240 * sigma3, (orbit.two_n, orbit.representative, j)


def test_completion_is_unimodular_for_every_dominant_vector():
    seen = set()
    for two_n in range(2, 102, 2):
        for orbit in orbits_of_norm(two_n):
            g = gcd(*orbit.representative)
            v0 = [x // g for x in orbit.representative]
            if tuple(v0) not in seen:
                seen.add(tuple(v0))
                assert abs(determinant([v0] + glue._completion(v0))) == 1, v0
    assert len(seen) == 201  # 228 orbits, 27 imprimitive ones repeat a v0


def test_rows_are_unchanged_on_a_second_basis(monkeypatch):
    # A seeded random unimodular change of the 7-dimensional basis before the
    # enumeration; the labels c_i = p . b_i follow the basis. Both runs record
    # the Gram matrices handed to short_vectors, which must differ for most
    # orbits.
    rng = random.Random(61)
    orbits = [o for two_n in range(2, 34, 2) for o in orbits_of_norm(two_n)]
    grams = []
    completion = glue._completion

    def recording(gram, *args, **kwargs):
        grams.append(gram)
        return short_vectors(gram, *args, **kwargs)

    monkeypatch.setattr(shortvec, "short_vectors", recording)
    first = [glue.coset_count_row(o).counts for o in orbits]
    monkeypatch.setattr(glue, "_completion", lambda v0: la.mat_mul(
        random_unimodular(rng, 7, 20), completion(v0)))
    assert [glue.coset_count_row(o).counts for o in orbits] == first
    half = len(orbits)
    assert len(grams) == 2 * half
    assert sum(a != b for a, b in zip(grams[:half], grams[half:])) > half // 2


def test_restricted_weight():
    (two,) = orbits_of_norm(2)
    assert glue.restricted_weight(complement_lattice(two.representative)) == 75
    (twelve,) = orbits_of_norm(12)
    assert glue.restricted_weight(complement_lattice(twelve.representative)) == 35
    rootfree = lt.direct_sum(lt.rank1(4), lt.rank1(6))
    assert glue.restricted_weight(rootfree) == 12
    with pytest.raises(LatticeError, match="not positive definite"):
        glue.restricted_weight(lt.H)


def test_divisor_classes(rows):
    two = row_for(rows, 2, 126)
    cells = glue.divisor_classes(two)
    # each norm is 2n times it: -3 is -3/2 at 2n = 2
    assert [(c.k, c.norm, c.count, c.vanishing) for c in cells] == [
        (1, -3, 56, True)]

    eight_nonprim = row_for(rows, 8, 126)
    k1 = [c for c in glue.divisor_classes(eight_nonprim) if c.k == 1]
    assert k1 and k1[0].count == 0 and not k1[0].vanishing

    ten = row_for(rows, 10, 60)
    k5 = [c for c in glue.divisor_classes(ten) if c.k == 5]
    assert k5[0].norm == -15  # -3/2 at 2n = 10
    # agrees with the dual-coset oracle (above) and the independent
    # coordinate model (below)
    assert k5[0].count == 32 and k5[0].vanishing


def test_degree10_k5_cell_in_independent_coordinates(rows):
    """Recount the (2n=10, k=5) cell in the integer/half-integer model.

    E8 there is the set of vectors with all-integer or all-half-integer
    entries and even coordinate sum; v = (3,1,0,...,0) is a primitive
    norm-10 vector (all such vectors form one orbit, so the cell count
    does not depend on this choice). The cell needs x with x.x = 4 and
    x.v = 5, since a = x - v/2 then has norm 3/2.
    """
    from itertools import product

    v = [3, 1, 0, 0, 0, 0, 0, 0]
    count = 0
    total_norm4 = 0
    for x in product(range(-2, 3), repeat=8):
        if sum(c * c for c in x) == 4 and sum(x) % 2 == 0:
            total_norm4 += 1
            if sum(a * b for a, b in zip(x, v)) == 5:
                count += 1
    halves = [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    for x in product(halves, repeat=8):
        if sum(c * c for c in x) == 4 and sum(x) % 2 == 0:
            total_norm4 += 1
            if sum(a * b for a, b in zip(x, v)) == 5:
                count += 1
    assert total_norm4 == 2160
    assert count == 32
    ten = row_for(rows, 10, 60)
    assert rational_counts(ten)[5] == {Fraction(3, 2): 32}


def test_hyperplane_multiplicity_examples(rows):
    # norms are 2n times them: at 2n = 2, -1 is -1/2 and -4 is -2
    two = row_for(rows, 2, 126)
    even_line = glue.hyperplane_multiplicity(two, 1, -1)
    assert even_line.total_multiplicity == 57
    assert [(c.scale, c.norm, c.label, c.count) for c in even_line.contributions] == [
        (1, -1, 1, 56), (2, -4, 0, 1)]

    odd_line = glue.hyperplane_multiplicity(two, 0, -4)
    assert odd_line.total_multiplicity == 1

    lone = glue.hyperplane_multiplicity(row_for(rows, 4, 84), 0, -8)  # -2 at 2n = 4
    assert lone.total_multiplicity == 1

    with pytest.raises(LatticeError, match="must have negative norm"):
        glue.hyperplane_multiplicity(two, 1, 1)
    with pytest.raises(LatticeError, match="no divisor arises from a dual vector of norm below -2"):
        glue.hyperplane_multiplicity(two, 1, -5)


def test_minus2_property_truth_set():
    true_set = {
        "II(1,1)": lt.ii(1, 1),
        "II(1,9)": lt.ii(1, 9),
        "II(1,17)": lt.ii(1, 17),
        "(2)": lt.rank1(2),
        "(2)+(-E8)": lt.direct_sum(lt.rank1(2), lt.rescale(lt.E8)),
        "(2)+2(-E8)": lt.direct_sum(lt.rank1(2), lt.rescale(lt.E8),
                                    lt.rescale(lt.E8)),
    }
    false_set = {
        "(4)": lt.rank1(4),
        "(6)": lt.rank1(6),
        "(2)+(-E7)": lt.direct_sum(lt.rank1(2), lt.rescale(lt.E7)),
    }
    for name, lat in true_set.items():
        assert glue.nikulin_minus2_property(lat), name
    for name, lat in false_set.items():
        assert not glue.nikulin_minus2_property(lat), name
    with pytest.raises(LatticeError, match=r"expected Lorentzian signature \(1, m\), got \(8, 0\)"):
        glue.nikulin_minus2_property(lt.E8)


def test_weight_at_least_12_and_integral(rows):
    for row in rows:
        w = glue.restricted_weight(complement_lattice(row.orbit.representative))
        assert w >= 12
        assert w == 12 + row.root_count // 2
