"""Exact integer and rational matrix routines.

Matrices are lists of row lists of Python ints (Fractions where stated),
vectors are row vectors. Nothing here ever touches floating point; the
ranks in play (<= 28) keep the dense textbook algorithms fast. The one
integer elimination here is the Hermite normal form: it gives kernels, the
Smith form and the exact inverse. The Lagrange reduction behind
signatures, determinants and the enumerator's L D L^T lives in
`reduction`, with `xgcd` and `is_symmetric`; this module imports all three
for its own eliminations, so they also resolve here.
"""

from __future__ import annotations

from operator import mul

from .reduction import IntMatrix, is_symmetric, lagrange_reduction, xgcd

IntVector = list[int]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    """Matrix product; entries may be ints or Fractions."""
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def pairing(gram, x, y):
    """Bilinear form value x . G . y^T."""
    return sum(xi * sum(g * yj for g, yj in zip(row, y)) for xi, row in zip(x, gram))


def bareiss_determinant(m: IntMatrix) -> int:
    """Determinant of a symmetric integer matrix: the last minor of its
    Lagrange reduction, or 0 if the reduction stops short. Each step is a
    congruence by a matrix of determinant +-1 (a choice of pivot, or
    e_i -> e_i + e_j), so that minor is det m. Raises ValueError unless m
    is symmetric.
    """
    if not is_symmetric(m):
        raise ValueError("determinant needs a symmetric matrix")
    minors, _ = lagrange_reduction(m)
    return minors[-1] if len(minors) > len(m) else 0


def fraction_inverse(m) -> list[list[Fraction]]:
    """Exact inverse of a square integer matrix, h^-1 u for its Hermite form
    u m = h, by back substitution (Cohen, GTM 138, 2.4.3). Serves
    `lattice.dual_basis`. Raises ZeroDivisionError if m is singular: then h
    has a 0 on its diagonal, and otherwise it is upper triangular."""
    from fractions import Fraction

    h, u = hermite_normal_form(m)
    inv = []  # the rows of m^-1, last first
    for i in range(len(h) - 1, -1, -1):
        if h[i][i] == 0:
            raise ZeroDivisionError("matrix is singular")
        acc = u[i]
        for x, done in zip(h[i][:i:-1], inv):
            acc = [a - x * b for a, b in zip(acc, done)]
        inv.append([Fraction(a) / h[i][i] for a in acc])
    return inv[::-1]


def _row_combine(a, u, i, j, coeffs):
    """Apply the unimodular 2x2 transform `coeffs` to rows i, j of a and u."""
    p, q, r, s = coeffs
    a[i], a[j] = (
        [p * x + q * y for x, y in zip(a[i], a[j])],
        [r * x + s * y for x, y in zip(a[i], a[j])],
    )
    u[i], u[j] = (
        [p * x + q * y for x, y in zip(u[i], u[j])],
        [r * x + s * y for x, y in zip(u[i], u[j])],
    )


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form with transform.

    Returns (h, u) with u unimodular and u @ m = h, where h has positive
    pivots with increasing pivot columns, entries above each pivot reduced
    into [0, pivot), and zero rows collected at the bottom.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = identity(rows)
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            u[r], u[p] = u[p], u[r]
        for i in range(r + 1, rows):
            if a[i][c] == 0:
                continue
            if a[i][c] % a[r][c] == 0:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            else:
                g, x, y = xgcd(a[r][c], a[i][c])
                _row_combine(a, u, r, i, (x, y, -(a[i][c] // g), a[r][c] // g))
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for j in range(r):
            q = a[j][c] // a[r][c]
            if q:
                a[j] = [x - q * y for x, y in zip(a[j], a[r])]
                u[j] = [x - q * y for x, y in zip(u[j], u[r])]
        r += 1
        if r == rows:
            break
    return a, u


def row_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical HNF basis of the row lattice of m, zero rows dropped."""
    h, _ = hermite_normal_form(m)
    return [row for row in h if any(row)]


def left_kernel(m: IntMatrix) -> IntMatrix:
    """Canonical basis of {x : x @ m = 0} over the integers.

    The kernel of a map into a torsion-free group is saturated, so the
    returned basis spans a primitive sublattice of Z^rows.
    """
    h, u = hermite_normal_form(m)
    ker = [u[i] for i in range(len(h)) if not any(h[i])]
    return row_hnf(ker) if ker else []


def _is_diagonal(a) -> bool:
    return all(x == 0 for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Smith normal form with its row transform.

    Returns (left, diag) with left unimodular and left @ m @ right = diag for
    some unimodular right, which is not built; diag is diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ... Row and
    column HNFs alternate until the matrix is diagonal (Kannan and Bachem,
    SIAM J. Comput. 8, 1979), starting with a row pass so that each entry is
    a pivot or 0; a pair d_i, d_j with d_i not dividing d_j then becomes
    gcd, lcm in place.
    """
    a, left = hermite_normal_form(m)
    while not _is_diagonal(a):
        a = transpose(hermite_normal_form(transpose(a))[0])
        if not _is_diagonal(a):
            a, u = hermite_normal_form(a)
            left = mat_mul(u, left)
    d = diagonal_of(a)
    k = sum(1 for x in d if x)
    for i in range(k):
        for j in range(i + 1, k):
            if d[j] % d[i] == 0:
                continue
            g, x, y = xgcd(d[i], d[j])
            p, q = d[i] // g, d[j] // g
            d[i], d[j] = g, d[j] * p
            a[i][i], a[j][j] = d[i], d[j]
            li, lj = left[i], left[j]
            left[i] = [x * s + y * t for s, t in zip(li, lj)]
            left[j] = [p * t - q * s for s, t in zip(li, lj)]
    return left, a


def diagonal_of(m: IntMatrix) -> list[int]:
    return [m[i][i] for i in range(min(len(m), len(m[0]) if m else 0))]
