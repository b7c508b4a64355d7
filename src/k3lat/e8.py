"""E8 orbit machinery: dominant representatives, norm orbits, complements.

Coordinates are always with respect to the fixed simple-root basis of the
E8 Gram matrix in `lattice.E8` (Bourbaki node order). The full orthogonal
group of E8 equals its Weyl group, so Weyl dominance classifies orbits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial, gcd

from . import intlinalg as la
from .errors import ZeroVectorError
from .lattice import E8, Lattice, orthogonal_complement, sublattice

WEYL_ORDER = 696729600  # |W(E8)| = 2^14 3^5 5^2 7

_GRAM = [list(row) for row in E8.gram]
_GRAM_INV = [[int(x) for x in row] for row in la.fraction_inverse(_GRAM)]
_ADJ = [[j for j in range(8) if _GRAM[i][j] == -1] for i in range(8)]


def dominant_representative(x) -> tuple[int, ...]:
    """The unique Weyl-orbit representative with all simple-root pairings >= 0.

    Repeatedly reflects at the lowest-index simple root with negative
    pairing; the endpoint does not depend on that choice. Idempotent, and
    constant on orbits (so x and -x reduce to the same vector).
    """
    coords = [int(c) for c in x]
    if len(coords) != 8:
        raise ValueError("expected an E8 coordinate vector of length 8")
    if not any(coords):
        raise ZeroVectorError("the zero vector has no dominant representative")
    pair = la.vec_mat(coords, _GRAM)
    while True:
        i = next((i for i, p in enumerate(pair) if p < 0), None)
        if i is None:
            return tuple(coords)
        p = pair[i]
        coords[i] -= p
        row = _GRAM[i]
        pair = [a - p * b for a, b in zip(pair, row)]


def _arm_length(start: int, away_from: int, nodes: frozenset[int]) -> int:
    length = 0
    prev, cur = away_from, start
    while cur in nodes:
        length += 1
        nxt = [j for j in _ADJ[cur] if j in nodes and j != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
    return length


def _component_orders(nodes: frozenset[int]) -> tuple[int, int]:
    """(Weyl order, root count) of a connected subdiagram of the E8 diagram."""
    n = len(nodes)
    branch = [v for v in nodes if sum(1 for w in _ADJ[v] if w in nodes) == 3]
    if not branch:
        return factorial(n + 1), n * (n + 1)  # type A_n
    arms = sorted(_arm_length(w, branch[0], nodes) for w in _ADJ[branch[0]]
                  if w in nodes)
    if arms[:2] == [1, 1]:
        return (1 << (n - 1)) * factorial(n), 2 * n * (n - 1)  # type D_n
    return {(1, 2, 2): (51840, 72), (1, 2, 3): (2903040, 126),
            (1, 2, 4): (WEYL_ORDER, 240)}[tuple(arms)]


def parabolic_orders(dominant: tuple[int, ...]) -> tuple[int, int]:
    """(Weyl order, root count) of the roots orthogonal to a dominant vector.

    The isotropy group of a point in the closed chamber is the parabolic
    subgroup generated by the simple reflections that fix it (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12), so the roots orthogonal to
    the vector are those of the subsystem spanned by the simple roots with
    pairing 0. The Weyl order is the product over its connected components,
    the root count the sum.
    """
    pair = la.vec_mat(list(dominant), _GRAM)
    if any(p < 0 for p in pair):
        raise ValueError("vector is not dominant")
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
    return parabolic_orders(dominant)[0]


def complement_of(v) -> Lattice:
    """Rank-7 orthogonal complement of v in E8 (of v's primitive part).

    A non-primitive v has the same complement as the primitive vector on
    its line, so the input is divided by its content first.
    """
    coords = [int(c) for c in v]
    if not any(coords):
        raise ZeroVectorError("zero vector has no complement line")
    g = gcd(*coords)
    primitive = [c // g for c in coords]
    return orthogonal_complement(E8, sublattice(E8, [primitive]))


@dataclass(frozen=True)
class OrbitClass:
    """One orthogonal-group orbit of norm-two_n vectors in E8.

    ``representative`` is the dominant vector of the orbit (simple-root
    coordinates); ``complement`` is its rank-7 orthogonal complement, of
    determinant two_n exactly when the orbit is primitive; ``root_count_u``
    is the number of roots of the complement.
    """

    two_n: int
    representative: tuple[int, ...]
    primitive: bool
    orbit_size: int
    complement: Lattice
    root_count_u: int


def _dominant_vectors_of_norm(two_n: int) -> list[tuple[int, ...]]:
    """All dominant E8 vectors of the given norm, via weight coordinates.

    A vector is dominant iff its simple-root pairing vector p is
    componentwise nonnegative, and then norm(x) = p . Ginv . p^T. Every
    entry of Ginv is positive, so the search box is tiny and partial sums
    prune exactly.
    """
    found: list[tuple[int, ...]] = []
    p = [0] * 8

    def place(i: int, partial: int):
        if i == 8:
            if partial == two_n:
                x = la.vec_mat(p, _GRAM_INV)
                found.append(tuple(x))
            return
        cross = sum(_GRAM_INV[i][j] * p[j] for j in range(i))
        k = 0
        while True:
            value = partial + 2 * k * cross + _GRAM_INV[i][i] * k * k
            if value > two_n:
                break
            p[i] = k
            place(i + 1, value)
            k += 1
        p[i] = 0

    place(0, 0)
    return found


def orbits_of_norm(two_n: int) -> list[OrbitClass]:
    """All orbits of norm-two_n vectors, sorted by dominant representative.

    Odd norms have no vectors in an even lattice; that case warns and
    returns an empty list.
    """
    if two_n <= 0:
        raise ValueError("norm must be positive")
    if two_n % 2:
        warnings.warn(f"no vectors of odd norm {two_n} in an even lattice",
                      stacklevel=2)
        return []
    orbits = []
    for rep in sorted(_dominant_vectors_of_norm(two_n)):
        stab, roots = parabolic_orders(rep)
        if WEYL_ORDER % stab:
            raise RuntimeError(f"stabilizer order {stab} does not divide |W(E8)|")
        comp = complement_of(rep)
        orbits.append(OrbitClass(
            two_n=two_n,
            representative=rep,
            primitive=gcd(*rep) == 1,
            orbit_size=WEYL_ORDER // stab,
            complement=comp,
            root_count_u=roots,
        ))
    return orbits
