import math
import random
import warnings
from fractions import Fraction

import pytest

from k3lat import e8, intlinalg as la, lattice as lt
from k3lat.errors import ZeroVectorError
from k3lat.shortvec import root_count, short_vectors

HIGHEST_ROOT = (2, 3, 4, 6, 5, 4, 3, 2)


def reflect_simple(x, i):
    p = lt.E8.pairing(x, [1 if j == i else 0 for j in range(8)])
    out = list(x)
    out[i] -= p
    return tuple(out)


@pytest.fixture(scope="module")
def e8_histogram():
    return short_vectors(lt.E8.gram, Fraction(14), collect=True)


def test_every_root_reduces_to_highest_root(e8_histogram):
    roots = [v for v in e8_histogram.vectors if lt.E8.norm(v) == 2]
    assert len(roots) == 240
    assert {e8.dominant_representative(r) for r in roots} == {HIGHEST_ROOT}


def test_dominant_representative_idempotent_and_symmetric():
    rep = e8.dominant_representative((1, -2, 0, 3, -1, 0, 2, -4))
    assert e8.dominant_representative(rep) == rep
    x = (1, -2, 0, 3, -1, 0, 2, -4)
    neg = tuple(-c for c in x)
    assert e8.dominant_representative(x) == e8.dominant_representative(neg)
    with pytest.raises(ZeroVectorError):
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert e8.orbits_of_norm(3) == []
    assert caught and "odd norm" in str(caught[0].message)


def test_orbit_sizes_sum_to_direct_enumeration(e8_histogram):
    for two_n in range(2, 16, 2):
        want = e8_histogram.counts[Fraction(two_n)]
        orbits = e8.orbits_of_norm(two_n)
        assert sum(o.orbit_size for o in orbits) == want
        assert [o.representative for o in orbits] == sorted(
            o.representative for o in orbits)


def test_orbit_invariants():
    for two_n in range(2, 16, 2):
        for o in e8.orbits_of_norm(two_n):
            assert lt.E8.norm(o.representative) == two_n
            pairings = [lt.E8.pairing(o.representative,
                                      [1 if j == i else 0 for j in range(8)])
                        for i in range(8)]
            assert all(p >= 0 for p in pairings)
            assert o.root_count_u % 2 == 0
            assert o.complement.rank == 7
            if o.primitive:
                assert abs(lt.determinant(o.complement)) == two_n


def test_complement_of_scaled_vector():
    w = HIGHEST_ROOT
    doubled = tuple(2 * c for c in w)
    assert e8.complement_of(doubled).gram == e8.complement_of(w).gram
    assert e8.complement_of(doubled).basis == e8.complement_of(w).basis
    with pytest.raises(ZeroVectorError):
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
    hist = short_vectors(lt.E8.gram, Fraction(2), collect=True)
    roots = [la.vec_mat(r, lt.E8.gram) for r in hist.vectors if any(r)]
    assert len(roots) == 240
    checked = 0
    for two_n in range(2, 101, 2):
        for o in e8.orbits_of_norm(two_n):
            orthogonal = sum(1 for r in roots
                             if sum(a * b for a, b in zip(r, o.representative)) == 0)
            assert o.root_count_u == orthogonal == root_count(o.complement)
            checked += 1
    assert checked == 228


def dominant_with_zero_set(zero):
    """The dominant vector pairing 0 with the simple roots in `zero` and 1
    with the others (0-based Bourbaki nodes)."""
    pairing = [0 if i in zero else 1 for i in range(8)]
    return tuple(int(c) for c in la.vec_mat(pairing, la.fraction_inverse(lt.E8.gram)))


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
    assert e8.parabolic_orders(x) == (weyl, roots)
    assert e8.stabilizer_order(x) == weyl
    assert root_count(e8.complement_of(x)) == roots


def test_complement_determinant_closed_form():
    """det(v-perp) = 2n/g^2 against the built complement, every orbit 2n <= 100."""
    kinds = set()
    checked = 0
    for two_n in range(2, 101, 2):
        for o in e8.orbits_of_norm(two_n):
            g = math.gcd(*o.representative)
            comp = o.complement
            assert o.complement is comp
            assert o.complement_determinant == lt.determinant(comp) == two_n // g ** 2
            kinds.add(o.primitive)
            checked += 1
    assert checked == 228 and kinds == {True, False}
