import math
import random

import pytest

from k3lat import intlinalg as la
from k3lat.lattice import E7, E8


def cofactor_determinant(m):
    """Independent oracle: recursive Laplace expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_determinant(minor)
    return total


def unimodular_int_inverse(m):
    inv = la.fraction_inverse(m)
    assert all(f.denominator == 1 for row in inv for f in row)
    return [[int(f) for f in row] for row in inv]


def test_bareiss_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert la.bareiss_determinant(m) == cofactor_determinant(m)


def test_bareiss_adjugate_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1:
            m[0][0] = 0  # the elimination must swap rows at least once
        det = cofactor_determinant(m)
        if det == 0:
            continue
        adj = [[(-1) ** (i + j) * cofactor_determinant(
                    [[row[c] for c in range(n) if c != i]
                     for r, row in enumerate(m) if r != j])
                for j in range(n)] for i in range(n)]
        assert la.bareiss_adjugate(m) == (det, adj)
    with pytest.raises(ZeroDivisionError):
        la.bareiss_adjugate([[1, 2], [2, 4]])


def test_bareiss_e8_det_one():
    g = [list(r) for r in E8.gram]
    assert la.bareiss_determinant(g) == 1
    assert cofactor_determinant(g) == 1


def test_smith_identity():
    _, d, _ = la.smith_normal_form(la.identity(3))
    assert la.diagonal_of(d) == [1, 1, 1]


def test_smith_hand_reduced_example():
    # [[8,4],[4,0]]: row/column reduction by hand gives diag(4, 4)
    left, diag, right = la.smith_normal_form([[8, 4], [4, 0]])
    assert la.diagonal_of(diag) == [4, 4]
    assert abs(la.bareiss_determinant(diag)) == 16


def test_smith_e7():
    _, diag, _ = la.smith_normal_form([list(r) for r in E7.gram])
    assert la.diagonal_of(diag) == [1, 1, 1, 1, 1, 1, 2]


def test_smith_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        left, diag, right = la.smith_normal_form(m)
        assert la.mat_mul(la.mat_mul(left, m), right) == diag
        assert abs(la.bareiss_determinant(left)) == 1
        assert abs(la.bareiss_determinant(right)) == 1
        d = la.diagonal_of(diag)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0 if a else b == 0
        # reassembly: left^-1 diag right^-1 returns the input
        li = unimodular_int_inverse(left)
        ri = unimodular_int_inverse(right)
        assert la.mat_mul(la.mat_mul(li, diag), ri) == m


def test_hnf_transform_and_shape():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
        h, u = la.hermite_normal_form(m)
        assert la.mat_mul(u, m) == h
        assert abs(la.bareiss_determinant(u)) == 1
        pivots = []
        for row in h:
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                continue
            assert row[nz] > 0
            pivots.append(nz)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        # rows above a pivot carry reduced entries
        for i, row in enumerate(h):
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                continue
            for above in range(i):
                assert 0 <= h[above][nz] < row[nz]


def test_left_kernel_is_saturated():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(2, 5)
        cols = rng.randint(1, 3)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        ker = la.left_kernel(m)
        for row in ker:
            assert all(sum(r * c for r, c in zip(row, col)) == 0
                       for col in zip(*m))
        if ker:
            _, diag, _ = la.smith_normal_form(ker)
            assert all(d == 1 for d in la.diagonal_of(diag))


def normal_form_inputs():
    """Seeded random matrices up to 6 x 6 with many zero entries, and edge cases."""
    from k3lat.specparse import lattice_from_text

    rng = random.Random(23)
    cases = [[[-8]], [[4, 0], [0, -9]], [[4, 0, 0], [0, 6, 0], [0, 0, 10]],
             [[6, -4, 0, 10, 0, 14, 0, 8]], [[6], [-4], [0], [10], [0], [14], [0], [8]],
             [[0, 0, 0], [0, 0, 0]]]
    for spec in ("II(2,26)", "(-2) + -E8 + -E8 + H + H"):
        cases.append([list(row) for row in lattice_from_text(spec).gram])
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(cols)]
                      for _ in range(rows)])
    return cases


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for m in normal_form_inputs():
        left, diag, right = la.smith_normal_form(m)
        assert la.mat_mul(la.mat_mul(left, m), right) == diag
        assert abs(la.bareiss_determinant(left)) == 1
        assert abs(la.bareiss_determinant(right)) == 1
        theirs = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        ours = la.diagonal_of(diag)
        assert ours == [abs(int(theirs[i, i])) for i in range(len(ours))], m


def test_hermite_invariants_match_sympy():
    # sympy's HNF is column-style, with one column per unit of rank, so only
    # the invariants are compared: the rank, and |det m| for square nonsingular m
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    for m in normal_form_inputs():
        h, _ = la.hermite_normal_form(m)
        pivots = [next(x for x in row if x) for row in h if any(row)]
        assert len(pivots) == hermite_normal_form(sympy.Matrix(m)).cols, m
        if len(m) == len(m[0]) == len(pivots):
            assert math.prod(pivots) == abs(int(sympy.Matrix(m).det()))
