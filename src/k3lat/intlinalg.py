"""Exact integer and rational matrix routines.

Matrices are lists of row lists of Python ints (Fractions where stated),
vectors are row vectors. Nothing here ever touches floating point. These
dense textbook forms run on the whole matrix, so their cost grows with its
rank: `lat info` takes any spec, such as 24(-E8) of rank 192 (ROADMAP item 5
would take the discriminant group by orthogonal blocks). The one
integer elimination here is a Hermite form of augmented rows [m | x], each
transform carried as extra columns (Cohen, GTM 138, 2.4): it gives kernels,
the Smith form and the exact inverse. The Lagrange reduction behind
signatures, determinants and the enumerator's L D L^T lives in
`reduction`, with `xgcd`, which the Hermite steps use.
"""

from __future__ import annotations

from operator import mul

from .reduction import IntMatrix, xgcd


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    """Matrix product; entries may be ints or Fractions."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def bareiss_determinant(m: IntMatrix) -> int:
    """Determinant of a symmetric integer matrix, `lattice.determinant` of
    its lattice. Raises ValueError unless m is symmetric, and TypeError
    unless its entries are integers."""
    from .lattice import determinant, from_gram
    return determinant(from_gram(m))


def fraction_inverse(m) -> list[list[Fraction]]:
    """Exact inverse of a square integer matrix, h^-1 u for its Hermite form
    u m = h, by back substitution (Cohen, GTM 138, 2.4.3), for `lattice.dual_basis`.
    Raises ValueError unless m is square, and ZeroDivisionError if m is
    singular: then h has a 0 on its diagonal, and otherwise it is upper triangular."""
    from fractions import Fraction

    if any(len(row) != len(m) for row in m):
        raise ValueError("inverse needs a square matrix")
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


def _echelon(rows, cols: int):
    """Bring the first `cols` columns of `rows` to row Hermite form in place,
    each row operation acting on the whole row: [m | I] ends as [h | u]."""
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        top, rows[p] = rows[p], rows[r]
        for i, row in enumerate(rows[r + 1:], r + 1):
            if row[c] == 0:
                continue
            if row[c] % top[c] == 0:
                q = row[c] // top[c]
                rows[i] = [x - q * y for x, y in zip(row, top)]
            else:
                g, x, y = xgcd(top[c], row[c])
                s, t = top[c] // g, row[c] // g
                top, rows[i] = ([x * a + y * b for a, b in zip(top, row)],
                                [s * b - t * a for a, b in zip(top, row)])
        if top[c] < 0:
            top = [-x for x in top]
        rows[r] = top
        for j in range(r):
            q = rows[j][c] // top[c]
            if q:
                rows[j] = [x - q * y for x, y in zip(rows[j], top)]
        r += 1
    return rows


def _hermite(m: IntMatrix, extra) -> tuple[IntMatrix, IntMatrix]:
    """(h, u @ extra) for the Hermite form u @ m = h, from [m | extra]."""
    n = len(m[0]) if m else 0
    a = _echelon([list(row) + list(e) for row, e in zip(m, extra)], n)
    return [row[:n] for row in a], [row[n:] for row in a]


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form with transform.

    Returns (h, u) with u unimodular and u @ m = h, where h has positive
    pivots with increasing pivot columns, entries above each pivot reduced
    into [0, pivot), and zero rows collected at the bottom.
    """
    return _hermite(m, identity(len(m)))


def row_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical HNF basis of the row lattice of m, zero rows dropped."""
    h = _echelon([list(row) for row in m], len(m[0]) if m else 0)
    return [row for row in h if any(row)]


def left_kernel(m: IntMatrix) -> IntMatrix:
    """Canonical basis of {x : x @ m = 0} over the integers.

    The kernel of a map into a torsion-free group is saturated, so the
    returned basis spans a primitive sublattice of Z^rows.
    """
    h, u = hermite_normal_form(m)
    return row_hnf([x for x, row in zip(u, h) if not any(row)])


def _is_diagonal(a) -> bool:
    return all(x == 0 for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Smith normal form with its row transform.

    Returns (left, diag) with left unimodular and left @ m @ right = diag for
    some unimodular right, which is not built; diag is diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ... Row and
    column HNFs alternate, a row pass on [a | left] first and last, until the
    matrix is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979), so each
    entry is a pivot or 0; a pair d_i, d_j with d_i not dividing d_j then
    becomes gcd, lcm by one Hermite step on [d_i | left_i], [d_j | left_j].
    """
    a, left = hermite_normal_form(m)
    while not _is_diagonal(a):
        a, left = _hermite(transpose(_echelon(transpose(a), len(a))), left)
    d = diagonal_of(a)
    k = sum(1 for x in d if x)
    for i in range(k):
        for j in range(i + 1, k):
            if d[j] % d[i] == 0:
                continue
            (g, *left[i]), (_, *left[j]) = _echelon([[d[i], *left[i]], [d[j], *left[j]]], 1)
            d[i], d[j] = g, d[i] * d[j] // g
            a[i][i], a[j][j] = d[i], d[j]
    return left, a


def diagonal_of(m: IntMatrix) -> list[int]:
    return [m[i][i] for i in range(min(len(m), len(m[0]) if m else 0))]
