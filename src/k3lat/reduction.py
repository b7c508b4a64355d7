"""The integer reduction shared by every exact computation on a Gram matrix.

One fraction-free Lagrange reduction per orthogonal block gives a
lattice's signature and determinant, and one gives the L D L^T that the
short-vector search LLL-reduces and enumerates over; `xgcd` drives the
unimodular completion of a primitive E8 vector in `glue` and the Hermite
and Smith forms of `intlinalg`. Kept apart from those forms so that the
commands that need only a reduction compile none of them.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i)
    )


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a,b) >= 0 and a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def lagrange_reduction(m: IntMatrix) -> tuple[list[int], IntMatrix]:
    """Fraction-free Lagrange reduction of a symmetric integer matrix.

    Pivots at the lowest active nonzero diagonal entry, or if there is none
    at 2 a[i][j] after e_i -> e_i + e_j; Bareiss' update keeps each division
    exact. Returns (minors, a): m is congruent over Q to the diagonal form
    minors[i] / minors[i-1], or singular if minors stops short of len(m) + 1.
    """
    a = [list(row) for row in m]
    active = list(range(len(a)))
    minors = [1]
    while active:
        p = next((i for i in active if a[i][i]), None)
        if p is None:
            i = active[0]
            j = next((j for j in active if a[i][j]), None)
            if j is None:
                break
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            p = i
        prev, d = minors[-1], a[p][p]
        minors.append(d)
        active.remove(p)
        pivot_row = a[p]
        for i in active:
            row, f = a[i], a[i][p]
            for j in active:
                row[j] = (d * row[j] - f * pivot_row[j]) // prev
    return minors, a
