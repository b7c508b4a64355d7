import math
import random
import warnings

import pytest

from k3lat import e8, intlinalg as la, lattice as lt
from k3lat.errors import LatticeError
from k3lat.shortvec import root_count
from oracles import (SIMPLE_ROOTS_2, complement_lattice, e8_vectors, model_norm,
                     parabolic_orders_by_arms, simple_root_coordinates, simple_root_pairings,
                     vec_mat, vec_norm)

HIGHEST_ROOT = (2, 3, 4, 6, 5, 4, 3, 2)


def reflect_simple(x, i):
    p = vec_mat(x, lt.E8.gram)[i]
    out = list(x)
    out[i] -= p
    return tuple(out)


@pytest.fixture(scope="module")
def e8_model_ball():
    """E8 up to norm 14 in the coordinate model, doubled (oracles.e8_vectors)."""
    return e8_vectors(14)


def test_every_root_reduces_to_highest_root(e8_model_ball):
    roots = [simple_root_coordinates(y) for y in e8_model_ball if model_norm(y) == 2]
    assert len(roots) == 240
    assert all(vec_norm(r, lt.E8.gram) == 2 for r in roots)
    assert {e8.dominant_representative(r) for r in roots} == {HIGHEST_ROOT}


def test_dominant_representative_idempotent_and_symmetric():
    rep = e8.dominant_representative((1, -2, 0, 3, -1, 0, 2, -4))
    assert e8.dominant_representative(rep) == rep
    x = (1, -2, 0, 3, -1, 0, 2, -4)
    neg = tuple(-c for c in x)
    assert e8.dominant_representative(x) == e8.dominant_representative(neg)
    with pytest.raises(LatticeError, match="zero vector has no dominant representative"):
        e8.dominant_representative((0,) * 8)


def test_random_weyl_words_stay_in_orbit():
    rng = random.Random(97)
    reps = [o.representative for o in e8.orbits_of_norm(8)]
    for rep in reps:
        for _ in range(500):
            x = rep
            for _ in range(rng.randint(1, 40)):
                x = reflect_simple(x, rng.randrange(8))
            assert e8.dominant_representative(x) == rep


def test_orbit_structure_examples():
    assert len(e8.orbits_of_norm(2)) == 1
    assert e8.orbits_of_norm(2)[0].primitive

    by_prim = [o.primitive for o in e8.orbits_of_norm(8)]
    assert len(by_prim) == 2 and by_prim.count(False) == 1

    fourteen = e8.orbits_of_norm(14)
    assert len(fourteen) == 2 and all(o.primitive for o in fourteen)


def test_orbits_reject_bad_norms():
    with pytest.raises(ValueError):
        e8.orbits_of_norm(-2)
    # E8 is even: an odd norm finds no vector, and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(e8.orbits_of_norm(two_n) == [] for two_n in range(1, 402, 2))


def test_orbit_sizes_sum_to_direct_enumeration(e8_model_ball):
    norms = [model_norm(y) for y in e8_model_ball]
    for two_n in range(2, 16, 2):
        want = norms.count(two_n)
        orbits = e8.orbits_of_norm(two_n)
        assert sum(o.orbit_size for o in orbits) == want
        assert [o.representative for o in orbits] == sorted(
            o.representative for o in orbits)


CENSUS_NORMS = range(300, 401, 4)


def test_orbit_sizes_sum_to_the_theta_series():
    """E8 has 240 sigma_3(n) vectors of norm 2n (its theta series is E4)."""
    for n in [*range(1, 121), *(two_n // 2 for two_n in CENSUS_NORMS)]:
        sigma3 = sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
        assert sum(o.orbit_size for o in e8.orbits_of_norm(2 * n)) == 240 * sigma3, n


def test_coordinate_model_simple_roots_have_the_e8_gram():
    gram = [simple_root_pairings(r) for r in SIMPLE_ROOTS_2]
    assert gram == [list(row) for row in lt.E8.gram]
    assert [simple_root_coordinates(r) for r in SIMPLE_ROOTS_2] == [
        tuple(row) for row in la.identity(8)]


def test_orbit_gram_is_the_lattice_e8_gram():
    assert e8._GRAM == [list(row) for row in lt.E8.gram]
    assert la.mat_mul(e8._GRAM, e8._GRAM_INV) == la.identity(8)
    rng = random.Random(5)
    for _ in range(200):
        x = [rng.randint(-50, 50) for _ in range(8)]
        assert e8._pairings(x) == vec_mat(x, e8._GRAM)


def test_enumerator_carries_the_weight_coordinates():
    """Each dominant vector comes with its simple-root pairings p = x.G >= 0."""
    for two_n in [*range(2, 101, 2), *CENSUS_NORMS]:
        found = e8._dominant_vectors_of_norm(two_n)
        reps = [o.representative for o in e8.orbits_of_norm(two_n)]
        assert sorted(x for x, _ in found) == reps
        for x, p in found:
            assert list(p) == vec_mat(x, e8._GRAM) and min(p) >= 0, (two_n, x)


def test_orbit_invariants():
    for two_n in range(2, 16, 2):
        for o in e8.orbits_of_norm(two_n):
            assert vec_norm(o.representative, lt.E8.gram) == two_n
            pairings = vec_mat(o.representative, lt.E8.gram)
            assert all(p >= 0 for p in pairings)
            assert o.root_count_u % 2 == 0
            comp = complement_lattice(o.representative)
            assert comp.rank == 7
            if o.primitive:
                assert abs(lt.determinant(comp)) == two_n


def test_complement_of_scaled_vector():
    w = HIGHEST_ROOT
    doubled = tuple(2 * c for c in w)
    assert complement_lattice(doubled).gram == complement_lattice(w).gram
    assert e8.complement_of(doubled) == e8.complement_of(w)
    with pytest.raises(LatticeError, match="zero vector has no complement line"):
        e8.complement_of((0,) * 8)


def test_complement_root_counts_from_table():
    expected = {2: 126, 4: 84, 6: 74, 12: 46}
    for two_n, roots in expected.items():
        prim = [o for o in e8.orbits_of_norm(two_n) if o.primitive]
        assert len(prim) == 1
        assert prim[0].root_count_u == roots
    nonprim = [o for o in e8.orbits_of_norm(8) if not o.primitive]
    assert nonprim[0].root_count_u == 126


def test_stabilizer_order_of_root():
    assert e8.stabilizer_order(HIGHEST_ROOT) == 2903040  # W(E7)
    assert e8.WEYL_ORDER // e8.stabilizer_order(HIGHEST_ROOT) == 240
    with pytest.raises(ValueError):
        e8.stabilizer_order((0, 0, 0, 0, 0, 0, 0, -1))


def test_orbit_root_counts_match_enumeration():
    """The closed form against two enumerations, for every orbit with 2n <= 100."""
    # (r, alpha_i) for each root r of the coordinate model
    roots = [simple_root_pairings(y) for y in e8_vectors(2) if any(y)]
    assert len(roots) == 240
    checked = 0
    for two_n in range(2, 101, 2):
        for o in e8.orbits_of_norm(two_n):
            orthogonal = sum(1 for r in roots
                             if sum(a * b for a, b in zip(r, o.representative)) == 0)
            assert o.root_count_u == orthogonal == root_count(
                complement_lattice(o.representative))
            checked += 1
    assert checked == 228


def dominant_with_zero_set(zero):
    """The dominant vector pairing 0 with the simple roots in `zero` and 1
    with the others (0-based Bourbaki nodes)."""
    pairing = [0 if i in zero else 1 for i in range(8)]
    return tuple(int(c) for c in vec_mat(pairing, la.fraction_inverse(lt.E8.gram)))


@pytest.mark.parametrize("zero, weyl, roots", [
    ({4, 5, 6, 7}, 120, 20),            # A4
    ({1, 2, 3, 4, 5}, 1920, 40),        # D5
    ({0, 1, 2, 3, 4, 5}, 51840, 72),    # E6
    ({0, 1, 2, 3, 4, 5, 6}, 2903040, 126),  # E7
    ({0, 3, 5, 6}, 2 * 2 * 6, 2 + 2 + 6),   # A1 + A1 + A2
])
def test_parabolic_orders_by_component_type(zero, weyl, roots):
    x = dominant_with_zero_set(zero)
    assert e8.dominant_representative(x) == x
    assert e8.parabolic_orders(vec_mat(x, lt.E8.gram)) == (weyl, roots)
    assert e8.stabilizer_order(x) == weyl
    assert root_count(complement_lattice(x)) == roots


def test_parabolic_orders_of_every_zero_set_match_the_arm_walk():
    # Every proper subset of the simple roots is the zero set of one dominant
    # vector: its Weyl order and root count are those of the arm walk, and
    # the root count is that of the roots of the coordinate model orthogonal
    # to the vector.
    roots = [simple_root_pairings(y) for y in e8_vectors(2) if any(y)]
    assert len(roots) == 240
    for mask in range(255):
        zero = {i for i in range(8) if mask >> i & 1}
        x = dominant_with_zero_set(zero)
        weyl, count = e8.parabolic_orders(vec_mat(x, lt.E8.gram))
        assert (weyl, count) == parabolic_orders_by_arms(zero), zero
        assert count == sum(1 for r in roots if not sum(a * b for a, b in zip(r, x))), zero


def test_complement_determinant_closed_form():
    """det(v-perp) = 2n/g^2 against the built complement, every orbit 2n <= 100."""
    kinds = set()
    checked = 0
    for two_n in range(2, 101, 2):
        for o in e8.orbits_of_norm(two_n):
            g = math.gcd(*o.representative)
            comp = complement_lattice(o.representative)
            assert o.complement_determinant == lt.determinant(comp) == two_n // g ** 2
            kinds.add(o.primitive)
            checked += 1
    assert checked == 228 and kinds == {True, False}
