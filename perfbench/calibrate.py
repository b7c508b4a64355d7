"""A fixed unit of work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

The benchmark starts this script in a fresh interpreter between k3lat
commands, at most once a second, and scales its time metrics by the
script's mean time over the run (see run.py). It does what a short k3lat command does,
without k3lat: start an interpreter, import a few standard modules, and
enumerate the short vectors of E8 by exact branch and bound in integers.
It never changes, so a change in its time is a change in the host.
Exits 1 if the count of E8 vectors of norm at most 6 is wrong.
"""

import sys
from fractions import Fraction
from math import isqrt, lcm

E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
      [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
BOUND = 6
# 1 + 240 + 2160 + 6720: the theta series of E8 up to norm 6.
EXPECTED = 9121
REPEATS = 3


def count_short_vectors(gram, bound: int) -> int:
    n = len(gram)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = []
    for j in range(n):
        d = Fraction(gram[j][j]) - sum(lower[j][k] ** 2 * pivots[k] for k in range(j))
        pivots.append(d)
        for i in range(j + 1, n):
            lower[i][j] = (Fraction(gram[i][j]) - sum(
                lower[i][k] * lower[j][k] * pivots[k] for k in range(j))) / d
    den = lcm(*[p.denominator for p in pivots],
              *[lower[i][k].denominator for i in range(n) for k in range(i)])
    d2 = den * den
    dn = [int(p * den) for p in pivots]
    ucol = [[int(lower[i][k] * den) for k in range(i)] for i in range(n)]
    partial = [0] * n
    found = 0

    def descend(level: int, remaining: int) -> None:
        nonlocal found
        dni = dn[level]
        a = partial[level]
        w = isqrt(remaining * dni)
        step = dni * d2
        col = ucol[level]
        for xi in range(-((w + dni * a) // step), (w - dni * a) // step + 1):
            zn = xi * d2 + a
            spent = dni * zn * zn
            if level == 0:
                found += 1
                continue
            yn = xi * den
            for k in range(level):
                partial[k] += col[k] * yn
            descend(level - 1, remaining - spent)
            for k in range(level):
                partial[k] -= col[k] * yn

    descend(n - 1, bound * den * d2 * d2)
    return found


if __name__ == "__main__":
    counts = [count_short_vectors(E8, BOUND) for _ in range(REPEATS)]
    sys.exit(0 if counts == [EXPECTED] * REPEATS else 1)
