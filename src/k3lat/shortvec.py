"""Short-vector enumeration in positive definite integral lattices.

The search LLL-reduces the basis it is given (`lll_reduce`, started from
`reduction.lagrange_reduction`), so its work does not depend on that
basis, and branches and bounds over the integer L D L^T the LLL ends with,
the Lagrange reduction of the reduced basis, last coordinate outermost:
with leading minors Delta_k, norm(y) = sum_k w_k^2 / (Delta_k Delta_(k+1))
for w_k = sum_(i>=k) a[i][k] y_i. Every norm is an integer, so a bound is
floored once, to the largest norm it admits, and the histogram is keyed by
integer norms; scaled by M = lcm_k Delta_k Delta_(k+1) every quantity is
an integer and the coordinate intervals come from math.isqrt exactly. No
floating point, and no Fraction in the search.

x and -x have one norm and opposite labels, so the search visits only the
half-space of vectors whose last nonzero coordinate is positive (Cohen,
GTM 138, 2.7.3): while every coordinate fixed so far is 0, the next one
starts at 0, or at 1 on the last level. Each such leaf is then counted
under its label t and under -t, and the zero vector once.
"""

from __future__ import annotations

from math import floor, isqrt, lcm

from .errors import LatticeError
from .reduction import IntMatrix, is_symmetric, lagrange_reduction


def _reduce_definite(gram) -> tuple[list[int], IntMatrix]:
    """Lagrange reduction of G, checked positive definite: complete, with every
    minor positive (Sylvester). Its pivots then run in index order."""
    if not is_symmetric(gram):
        raise ValueError("Gram matrix must be symmetric")
    minors, a = lagrange_reduction(gram)
    if len(minors) <= len(gram) or min(minors) <= 0:
        raise LatticeError("Gram matrix is not positive definite")
    return minors, a


def rational_cholesky(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact G = L diag(d) L^T with L unit lower triangular: (L, pivots).
    Raises LatticeError unless G is positive definite."""
    from fractions import Fraction

    minors, a = _reduce_definite(gram)
    n = len(gram)
    lower = [[Fraction(a[i][k], minors[k + 1]) if k < i else Fraction(int(i == k))
              for k in range(n)] for i in range(n)]
    return lower, [Fraction(minors[k + 1], minors[k]) for k in range(n)]


def lll_reduce(gram, label) -> tuple[list[int], IntMatrix, list]:
    """Cohen's integral LLL (GTM 138, Alg. 2.6.7, delta = 3/4) of a positive
    definite integer Gram matrix, on the minors d and the entries
    lam[k][j] = d_(j+1) mu_kj of `_reduce_definite`, updated exactly. The
    label form follows the basis: b_k -> b_k - q b_l takes c_k to
    c_k - q c_l, and a swap swaps it. Returns (d, lam, label); d and lam
    below its diagonal are then the Lagrange reduction of the reduced basis."""
    d, lam = _reduce_definite(gram)
    label = list(label)

    def size_reduce(k, l):
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest to lam/d
        if q:
            lam[k][:l + 1] = [x - q * y for x, y in zip(lam[k], lam[l][:l] + [d[l + 1]])]
            label[k] -= q * label[l]

    k, n = 1, len(gram)
    while k < n:
        size_reduce(k, k - 1)
        r = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * r * r:  # Lovasz holds
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
        label[k - 1], label[k] = label[k], label[k - 1]
        b = (d[k - 1] * d[k + 1] + r * r) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - r * t) // d[k]
            lam[i][k - 1] = (b * t + r * lam[i][k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return d, lam, label


class NormHistogram:
    """Exact counts of enumerated vectors, keyed by integer norm, or by
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


def short_vectors(gram, bound, *, label=None, modulus=0) -> NormHistogram:
    """Enumerate all x in Z^r with norm(x) <= bound.

    ``gram`` is a sequence of integer rows and ``bound`` a rational. Every
    norm is an integer, so the bound is floored: to count the norms below
    an integer b, pass b - 1. ``label`` is an optional integer linear form
    on the coordinates x, read modulo ``modulus``; with it the histogram is
    keyed by (label, norm). The search lists one of each pair x, -x and
    folds in the other (see the module docstring).
    """
    r = len(gram)
    labelled = label is not None
    if not labelled:  # searched as the zero form mod 1, the label dropped at the end
        label, modulus = [0] * r, 1
    elif len(label) != r or modulus <= 0:
        raise ValueError("label form needs one coefficient per coordinate "
                         "and a positive modulus")
    hist = NormHistogram()
    minors, a, coeff = lll_reduce(gram, label)
    top = floor(bound)  # the largest norm admitted
    if top < 0:
        return hist

    products = [x * y for x, y in zip(minors, minors[1:])]  # Delta_k Delta_(k+1)
    scale = lcm(*products)
    weight = [scale // x for x in products]
    bb = top * scale

    partial = [0] * r  # partial[k] = sum_(i>k fixed) a[i][k] x_i
    raw: dict = {}  # leaf counts, keyed by the int modulus * scaled norm + label

    def descend(level: int, remaining: int, lab: int, zero: bool):
        e, s, base = weight[level], minors[level + 1], partial[level]  # w_level at x_level = 0
        t = isqrt(remaining // e)
        x_hi = (t - base) // s
        # while every coordinate above is 0, base is 0 too: x_level >= 0, x != 0
        x_lo = int(level == 0) if zero else -((t + base) // s)
        if level == 0:
            c0, used, em = coeff[0], (bb - remaining) * modulus, e * modulus
            for xi in range(x_lo, x_hi + 1):
                w = s * xi + base
                key = used + em * w * w + (lab + c0 * xi) % modulus
                raw[key] = raw.get(key, 0) + 1
            return
        row = a[level]
        cl = coeff[level]
        for xi in range(x_lo, x_hi + 1):
            w = s * xi + base
            for k in range(level):
                partial[k] += row[k] * xi
            descend(level - 1, remaining - e * w * w, lab + cl * xi, zero and not xi)
            for k in range(level):
                partial[k] -= row[k] * xi

    if r:
        descend(r - 1, bb, 0, True)
    # -x has the norm of x and the label -t; the zero vector is no leaf
    leaves, raw = raw, {0: 1}
    for key, c in leaves.items():
        for mirror in (key, key - key % modulus + -key % modulus):
            raw[mirror] = raw.get(mirror, 0) + c
    # every norm is an integer, so each scaled norm divides by scale exactly
    for key, c in raw.items():
        norm, t = divmod(key, modulus)
        hist.counts[(t, norm // scale) if labelled else norm // scale] = c
    return hist


def vector_count(gram, bound) -> int:
    """Total number of vectors of norm at most the bound."""
    return short_vectors(gram, bound).total


def root_count(lat) -> int:
    """Number of vectors of squared length 2 in a definite lattice.

    Negative definite input is flipped to the internal positive convention
    first, so this is the count of norm -2 vectors in the negative convention.
    """
    from .lattice import signature
    pos, neg = signature(lat)  # raises LatticeError on det 0
    if neg == 0:
        gram = lat.gram
    elif pos == 0:
        gram = tuple(tuple(-x for x in row) for row in lat.gram)
    else:
        raise LatticeError(f"lattice of signature {(pos, neg)} is not definite")
    # G is the orthogonal sum of its blocks, the components of its nonzero
    # off-diagonal entries; a root's norms in them sum to 2: (1) + (1) has 4 roots.
    counts, left = [1, 0, 0], set(range(len(gram)))  # norms 0, 1, 2 so far
    while left:
        block = [left.pop()]
        for i in block:  # the block grows as the loop reads it
            near = {j for j in left if gram[i][j]}
            left -= near
            block.extend(near)
        c = short_vectors([[gram[i][j] for j in block] for i in block], 2).counts
        counts = [sum(counts[m] * c.get(n - m, 0) for m in range(n + 1)) for n in range(3)]
    return counts[2]
