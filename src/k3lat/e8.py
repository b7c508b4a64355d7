"""E8 orbit machinery: dominant representatives, norm orbits, and complement
basis rows, which `complement_of` computes on each call and no orbit keeps.

Coordinates are always with respect to the fixed simple-root basis of the
E8 Gram matrix `lattice.E8` (Bourbaki node order). The full orthogonal
group of E8 equals its Weyl group, so Weyl dominance classifies orbits.
"""

from __future__ import annotations

from math import factorial, gcd, isqrt
from operator import index

from .errors import LatticeError
from .records import Record

WEYL_ORDER = 696729600  # |W(E8)| = 2^14 3^5 5^2 7

# The Dynkin diagram of `lattice.E8`, a deliberate copy (a test checks that
# its Gram matrix is that of `lattice.E8`): listing orbits then never loads
# `lattice`, and `lattice` does not load this module for the edges, which
# would add about 3% to a `lat info` command.
_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))
_ADJ = [[j for j in range(8) if (min(i, j) + 1, max(i, j) + 1) in _EDGES] for i in range(8)]
# The inverse Gram matrix: row i is the fundamental weight i in simple-root
# coordinates (Bourbaki, Lie Groups and Lie Algebras, Plate VII; a test
# checks that it inverts the Gram matrix of `lattice.E8`).
_GRAM_INV = [[4, 5, 7, 10, 8, 6, 4, 2],
             [5, 8, 10, 15, 12, 9, 6, 3],
             [7, 10, 14, 20, 16, 12, 8, 4],
             [10, 15, 20, 30, 24, 18, 12, 6],
             [8, 12, 16, 24, 20, 15, 10, 5],
             [6, 9, 12, 18, 15, 12, 8, 4],
             [4, 6, 8, 12, 10, 8, 6, 3],
             [2, 3, 4, 6, 5, 4, 3, 2]]


def _pairings(x) -> list[int]:
    """The simple-root pairings x . G, read off the diagram."""
    return [2 * x[i] - sum(x[j] for j in _ADJ[i]) for i in range(8)]


def dominant_representative(x) -> tuple[int, ...]:
    """The unique Weyl-orbit representative with all simple-root pairings >= 0.

    Repeatedly reflects at the lowest-index simple root with negative
    pairing; the endpoint does not depend on that choice. Idempotent, and
    constant on orbits (so x and -x reduce to the same vector).
    """
    coords = [index(c) for c in x]
    if len(coords) != 8:
        raise ValueError("expected an E8 coordinate vector of length 8")
    if not any(coords):
        raise LatticeError("the zero vector has no dominant representative")
    pair = _pairings(coords)
    while True:
        i = next((i for i, p in enumerate(pair) if p < 0), None)
        if i is None:
            return tuple(coords)
        p = pair[i]
        coords[i] -= p
        pair[i] = -p
        for j in _ADJ[i]:
            pair[j] += p


def _component_orders(nodes: frozenset[int]) -> tuple[int, int]:
    """(Weyl order, root count) of a connected subdiagram of the E8 diagram,
    which branches at node 3 (0-based) to nodes 1, 2 and 4: A_n unless the
    component holds all four, else E_n if it also holds 0 and 5, or D_n."""
    n = len(nodes)
    if not nodes >= {1, 2, 3, 4}:
        return factorial(n + 1), n * (n + 1)  # type A_n
    if nodes >= {0, 5}:
        return {6: (51840, 72), 7: (2903040, 126), 8: (WEYL_ORDER, 240)}[n]  # type E_n
    return (1 << (n - 1)) * factorial(n), 2 * n * (n - 1)  # type D_n


def parabolic_orders(pair) -> tuple[int, int]:
    """(Weyl order, root count) of the roots orthogonal to the dominant
    vector with simple-root pairings `pair`, all >= 0.

    The isotropy group of a point in the closed chamber is the parabolic
    subgroup generated by the simple reflections that fix it (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12), so the roots orthogonal to
    the vector are those of the subsystem spanned by the simple roots with
    pairing 0. The Weyl order is the product over its connected components,
    the root count the sum.
    """
    zero = {i for i, p in enumerate(pair) if p == 0}
    order, roots = 1, 0
    seen: set[int] = set()
    for v in zero:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            cur = stack.pop()
            for w in _ADJ[cur]:
                if w in zero and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        weyl, count = _component_orders(frozenset(comp))
        order *= weyl
        roots += count
    return order, roots


def stabilizer_order(dominant: tuple[int, ...]) -> int:
    """Order of the Weyl stabilizer of a dominant vector."""
    pair = _pairings(dominant)
    if any(p < 0 for p in pair):
        raise ValueError("vector is not dominant")
    return parabolic_orders(pair)[0]


def complement_of(v) -> list[list[int]]:
    """The 7 HNF basis rows of the complement of v in E8, for
    `lattice.sublattice(E8, rows)`. A non-primitive v has the complement of
    the primitive vector on its line, so v is divided by its content first."""
    from .lattice import E8, orthogonal_complement

    coords = [index(c) for c in v]
    if not any(coords):
        raise LatticeError("zero vector has no complement line")
    g = gcd(*coords)
    return orthogonal_complement(E8, [[c // g for c in coords]])


class OrbitClass(Record):
    """One orthogonal-group orbit of norm-two_n vectors in E8.

    ``representative`` is the dominant vector of the orbit (simple-root
    coordinates); ``root_count_u`` is the number of roots of its rank-7
    orthogonal complement, with basis rows `complement_of(representative)`."""

    __slots__ = ("two_n", "representative", "primitive", "orbit_size", "root_count_u")

    @property
    def complement_determinant(self) -> int:
        """det(v-perp) = 2n/g^2 for v of content g, as E8 is unimodular."""
        return self.two_n // gcd(*self.representative) ** 2


def _dominant_vectors_of_norm(two_n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All dominant E8 vectors of the given norm, as (coordinates, p) pairs.

    A vector x is dominant iff its simple-root pairing vector p = x . G is
    componentwise nonnegative, and then x = p . Ginv and norm(x) =
    p . Ginv . p^T. Every entry of Ginv is positive, so the search box is
    tiny and partial sums prune exactly.
    """
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    p = [0] * 8
    row7 = _GRAM_INV[7]

    def place(i: int, partial: int, x: list[int]):
        # x = p . Ginv over the levels placed so far, so x[i] is the cross
        # term of level i with them: placing k adds 2 k x[i] + Ginv[i][i] k^2.
        cross, row = x[i], _GRAM_INV[i]
        g = row[i]
        k, value = 0, partial
        if i < 6:
            while value <= two_n:
                p[i] = k
                place(i + 1, value, x)
                x = [a + b for a, b in zip(x, row)]
                k += 1
                value = partial + (2 * cross + g * k) * k
        else:
            # The last two levels in one loop: for each k at level 6, the
            # last coordinate m solves 2 m^2 + 2 c m = two_n - value, with
            # Ginv[7][7] = 2 and c the cross term of level 7. Norms in E8 are
            # even, so a square disc has root = c (mod 2).
            while value <= two_n:
                c = x[7] + k * row[7]
                disc = c * c + 2 * (two_n - value)
                root = isqrt(disc)
                if root * root == disc:
                    m = (root - c) // 2
                    found.append((tuple(a + k * b + m * d for a, b, d in zip(x, row, row7)),
                                  (*p[:6], k, m)))
                k += 1
                value = partial + (2 * cross + g * k) * k

    place(0, 0, [0] * 8)
    return found


def orbits_of_norm(two_n: int) -> list[OrbitClass]:
    """All orbits of norm-two_n vectors, sorted by dominant representative.

    Odd norms have no vectors in an even lattice: the search returns an
    empty list, as its discriminants are then 2 or 3 mod 4, never squares.
    """
    if two_n <= 0:
        raise ValueError("norm must be positive")
    orbits = []
    for rep, pair in sorted(_dominant_vectors_of_norm(two_n)):
        stab, roots = parabolic_orders(pair)
        orbits.append(OrbitClass(
            two_n=two_n,
            representative=rep,
            primitive=gcd(*rep) == 1,
            orbit_size=WEYL_ORDER // stab,
            root_count_u=roots,
        ))
    return orbits
