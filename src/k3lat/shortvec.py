"""Short-vector enumeration in positive definite lattices.

Branch and bound over an exact L D L^T decomposition of the Gram matrix,
recursing on the last coordinate outermost. The recursion runs in scaled
integer arithmetic: after multiplying through by a common denominator D,
the norm inequality becomes sum(dn_i * Z_i^2) <= bound * D^5 with every
quantity an integer, and coordinate intervals fall out of math.isqrt
exactly. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from . import intlinalg as la
from .errors import IndefiniteLatticeError, NotPositiveDefiniteError
from .lattice import signature


def rational_cholesky(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact G = L diag(d) L^T with L unit lower triangular.

    Returns (L, pivots). Raises NotPositiveDefiniteError as soon as a pivot
    fails to be positive, which doubles as the definiteness test.
    """
    if not la.is_symmetric(gram):
        raise ValueError("Gram matrix must be symmetric")
    n = len(gram)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots: list[Fraction] = []
    for j in range(n):
        d = Fraction(gram[j][j]) - sum(lower[j][k] ** 2 * pivots[k] for k in range(j))
        if d <= 0:
            raise NotPositiveDefiniteError(f"pivot {j} is {d}, not positive")
        pivots.append(d)
        for i in range(j + 1, n):
            s = Fraction(gram[i][j]) - sum(
                lower[i][k] * lower[j][k] * pivots[k] for k in range(j))
            lower[i][j] = s / d
    return lower, pivots


class NormHistogram:
    """Exact counts of enumerated vectors, keyed by rational norm, or by
    (label, norm) for a labelled query. Mutable, so not hashable."""

    __slots__ = ("counts",)

    def __init__(self, counts=None):
        self.counts = {} if counts is None else counts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self):
        return f"NormHistogram(counts={self.counts!r})"

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def short_vectors(gram, bound, offset=None, exclusive=False,
                  label=None, modulus=0) -> NormHistogram:
    """Enumerate all x in Z^r with norm(x + offset) within the bound.

    ``gram`` is a sequence of integer rows and ``bound`` a rational;
    ``offset`` is None or one rational per coordinate. ``exclusive``
    switches the bound comparison from <= to <. ``label`` is an
    optional integer linear form on the coordinates x, read modulo
    ``modulus``; with it the histogram is keyed by (label, norm).
    """
    gram = [list(row) for row in gram]
    r = len(gram)
    bound = Fraction(bound)
    offset = [Fraction(c) for c in (offset or [0] * r)]
    if len(offset) != r:
        raise ValueError("offset length does not match the rank")
    if label is not None and (len(label) != r or modulus <= 0):
        raise ValueError("label form needs one coefficient per coordinate "
                         "and a positive modulus")
    hist = NormHistogram()
    if r == 0:
        if (bound > 0) or (bound == 0 and not exclusive):
            hist.counts[Fraction(0) if label is None else (0, Fraction(0))] = 1
        return hist
    lower, pivots = rational_cholesky(gram)
    if bound < 0 or (exclusive and bound == 0):
        return hist

    # Common denominator for every rational in play.
    dens = [p.denominator for p in pivots] + [bound.denominator]
    dens += [c.denominator for c in offset]
    dens += [lower[j][i].denominator for i in range(r) for j in range(i + 1, r)]
    big_d = lcm(*dens)
    d2 = big_d * big_d
    dn = [int(p * big_d) for p in pivots]
    cn = [int(c * big_d) for c in offset]
    # ucol[i][k] scales the coefficient of y_i inside z_k, for k < i.
    ucol = [[int(lower[i][k] * big_d) for k in range(i)] for i in range(r)]
    bb = int(bound * big_d) * d2 * d2
    counts = hist.counts
    denom5 = big_d ** 5

    partial = [0] * r  # partial[k] = D^2 * sum_{j>k fixed} u_kj y_j
    coeff = list(label) if label is not None else [0] * r
    # Leaves are keyed by the scaled integer norm (with the label, if any)
    # and converted to exact fractions once, after the search.
    raw: dict = {}

    def descend(level: int, remaining: int, used: int, lab: int):
        dni = dn[level]
        a = cn[level] * big_d + partial[level]
        w = isqrt(remaining * dni)
        step = dni * d2
        x_hi = (w - dni * a) // step
        x_lo = -((w + dni * a) // step)
        if level == 0:
            c0 = coeff[0]
            for xi in range(x_lo, x_hi + 1):
                zn = xi * d2 + a
                key = used + dni * zn * zn
                if exclusive and key == bb:
                    continue
                if label is not None:
                    key = ((lab + c0 * xi) % modulus, key)
                raw[key] = raw.get(key, 0) + 1
            return
        col = ucol[level]
        cl = coeff[level]
        for xi in range(x_lo, x_hi + 1):
            zn = xi * d2 + a
            spent = dni * zn * zn
            yn = xi * big_d + cn[level]
            for k in range(level):
                partial[k] += col[k] * yn
            descend(level - 1, remaining - spent, used + spent, lab + cl * xi)
            for k in range(level):
                partial[k] -= col[k] * yn

    descend(r - 1, bb, 0, 0)
    if label is None:
        counts.update((Fraction(key, denom5), c) for key, c in raw.items())
    else:
        counts.update(((t, Fraction(key, denom5)), c) for (t, key), c in raw.items())
    return hist


def vector_count(gram, bound, offset=None, exclusive=False) -> int:
    """Total number of vectors within the bound."""
    return short_vectors(gram, bound, offset, exclusive).total


def root_count(lat) -> int:
    """Number of vectors of squared length 2 in a definite lattice.

    Negative definite input is flipped to the internal positive convention
    first, so this is the count of norm -2 vectors in the negative convention.
    """
    pos, neg = signature(lat)  # raises DegenerateLatticeError on det 0
    if neg == 0:
        gram = lat.gram
    elif pos == 0:
        gram = tuple(tuple(-x for x in row) for row in lat.gram)
    else:
        raise IndefiniteLatticeError(f"lattice of signature {(pos, neg)} is not definite")
    return short_vectors(gram, 2).counts.get(Fraction(2), 0)
