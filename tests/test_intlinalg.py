import math
import random
from fractions import Fraction

import pytest

from k3lat import intlinalg as la
from k3lat.lattice import E7, E8
from oracles import determinant, fraction_signature


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


def assert_smith_form(m, left, diag):
    """left is unimodular and left @ m @ right = diag for a unimodular right.

    The column HNF is canonical and diag is its own column HNF, so the
    column HNF of left @ m equals diag exactly when such a right exists.
    """
    assert abs(determinant(left)) == 1
    column_hnf = la.transpose(la.hermite_normal_form(la.transpose(la.mat_mul(left, m)))[0])
    assert column_hnf == diag


def test_bareiss_matches_cofactor_oracle():
    # the forward Bareiss reference on any square matrix, and the library's
    # determinant on symmetric ones
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == cofactor_determinant(m)
        sym = [[a + b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))]
        assert la.bareiss_determinant(sym) == cofactor_determinant(sym)


def symmetric_cases(rng, count):
    """Seeded zero-heavy symmetric matrices of rank 0..7, cycling through
    four kinds: random entries, the same with an all-zero diagonal, the Gram
    B B^T of a random basis B = I + N, and B S B^T with B of deficient rank."""
    def entry(size):
        return rng.choice((0, 0, rng.randint(-size, size)))

    def random_symmetric(n, size):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = entry(size)
        return m

    for case in range(count):
        n, kind = case % 8, case // 8 % 4
        if kind < 2:
            m = random_symmetric(n, 9)
            if kind == 1:
                for i in range(n):
                    m[i][i] = 0
        else:
            b = [[int(i == j) + entry(2) for j in range(n)] for i in range(n)]
            s = la.identity(n) if kind == 2 else random_symmetric(n, 4)
            if kind == 3 and n:
                b[-1] = [x - y for x, y in zip(b[0], b[n // 2])]
            m = la.mat_mul(la.mat_mul(b, s), la.transpose(b))
        yield m


def test_determinant_matches_forward_bareiss_on_symmetric_matrices():
    kinds = {"definite": 0, "indefinite": 0, "degenerate": 0,
             "nondegenerate, zero diagonal": 0}
    for m in symmetric_cases(random.Random(29), 1200):
        det = la.bareiss_determinant(m)
        assert det == determinant(m), m
        sig = fraction_signature(m)
        assert (sig is None) == (det == 0), m
        if sig is None:
            kinds["degenerate"] += 1
        elif m:
            kinds["definite" if 0 in sig else "indefinite"] += 1
            if len(m) > 1 and not any(m[i][i] for i in range(len(m))):
                kinds["nondegenerate, zero diagonal"] += 1
    assert min(kinds.values()) >= 40, kinds


def test_determinant_rejects_a_nonsymmetric_matrix():
    for m in ([[1, 2], [3, 4]], [[1, 2, 3]], [[0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            la.bareiss_determinant(m)


def test_determinant_rejects_a_fraction_entry():
    # det is -1; a reduction that floors with // would give -2
    m = [[2, 1, 0], [1, 2, 1], [0, 1, Fraction(1, 3)]]
    assert cofactor_determinant(m) == -1
    with pytest.raises(TypeError):
        la.bareiss_determinant(m)


def test_fraction_inverse_matches_cofactor_oracle():
    # the inverse from the Hermite form against adj m / det m by cofactors
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1:
            m[0][0] = 0  # the elimination must swap rows at least once
        det = cofactor_determinant(m)
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                la.fraction_inverse(m)
            continue
        adj = [[(-1) ** (i + j) * cofactor_determinant(
                    [[row[c] for c in range(n) if c != i]
                     for r, row in enumerate(m) if r != j])
                for j in range(n)] for i in range(n)]
        assert la.fraction_inverse(m) == [[Fraction(x, det) for x in row] for row in adj]
        checked += 1
    assert checked >= 40
    with pytest.raises(ZeroDivisionError):
        la.fraction_inverse([[1, 2], [2, 4]])
    assert la.fraction_inverse([]) == []
    for m in ([[1, 2]], [[1], [2]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="square"):
            la.fraction_inverse(m)


def test_bareiss_e8_det_one():
    g = [list(r) for r in E8.gram]
    assert la.bareiss_determinant(g) == 1
    assert cofactor_determinant(g) == 1


def test_smith_identity():
    _, d = la.smith_normal_form(la.identity(3))
    assert la.diagonal_of(d) == [1, 1, 1]


def test_smith_hand_reduced_example():
    # [[8,4],[4,0]]: row/column reduction by hand gives diag(4, 4)
    m = [[8, 4], [4, 0]]
    left, diag = la.smith_normal_form(m)
    assert la.diagonal_of(diag) == [4, 4]
    assert_smith_form(m, left, diag)
    assert abs(la.bareiss_determinant(diag)) == 16


def test_smith_e7():
    _, diag = la.smith_normal_form([list(r) for r in E7.gram])
    assert la.diagonal_of(diag) == [1, 1, 1, 1, 1, 1, 2]


def test_smith_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        left, diag = la.smith_normal_form(m)
        assert_smith_form(m, left, diag)
        d = la.diagonal_of(diag)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0 if a else b == 0


def test_hnf_transform_and_shape():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
        h, u = la.hermite_normal_form(m)
        assert la.mat_mul(u, m) == h
        assert abs(determinant(u)) == 1
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


def test_normal_forms_of_matrices_without_rows_or_columns():
    # (m, hermite_normal_form, row_hnf, left_kernel, smith_normal_form)
    cases = [
        ([], ([], []), [], [], ([], [])),
        ([[]], ([[]], [[1]]), [], [[1]], ([[1]], [[]])),
        ([[], []], ([[], []], la.identity(2)), [], la.identity(2),
         (la.identity(2), [[], []])),
        ([[0, 0]], ([[0, 0]], [[1]]), [], [[1]], ([[1]], [[0, 0]])),
    ]
    for m, hnf, basis, kernel, smith in cases:
        assert la.hermite_normal_form(m) == hnf, m
        assert la.row_hnf(m) == basis, m
        assert la.left_kernel(m) == kernel, m
        assert la.smith_normal_form(m) == smith, m


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
            _, diag = la.smith_normal_form(ker)
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
        left, diag = la.smith_normal_form(m)
        assert_smith_form(m, left, diag)
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
