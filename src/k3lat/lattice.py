"""Integral lattices: Gram arithmetic, duals, discriminant groups, complements.

A lattice is a free Z-module with an integer Gram matrix. Sublattices keep a
reference to their ambient lattice plus integer basis rows in ambient
coordinates, so orthogonal complements can be taken exactly. All arithmetic
is over Python ints and Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import intlinalg as la
from .errors import (
    DegenerateLatticeError,
    GramFileError,
    NonPrimitiveSublatticeError,
    ZeroVectorError,
)
from .records import Record


class Lattice(Record):
    """An integral lattice given by a symmetric Gram matrix.

    ``gram`` is a tuple of integer row tuples. ``ambient`` and ``basis`` are
    set for sublattices: ``basis`` rows are integer coordinate vectors in
    the ambient basis and the Gram matrix equals basis . ambient_gram .
    basis^T (checked on construction).
    """

    __slots__ = ("gram", "ambient", "basis")

    def __init__(self, gram, ambient: Lattice | None = None, basis=None):
        g = [list(row) for row in gram]
        if not la.is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        if (ambient is None) != (basis is None):
            raise ValueError("ambient and basis must be given together")
        if ambient is not None:
            b = [list(row) for row in basis]
            expected = la.mat_mul(la.mat_mul(b, [list(r) for r in ambient.gram]),
                                  la.transpose(b))
            if expected != g:
                raise ValueError("Gram does not match basis in ambient lattice")
        super().__init__(gram, ambient, basis)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pairing(self, x, y):
        """Exact bilinear form value of two coordinate vectors (int or Fraction)."""
        return la.pairing(self.gram, x, y)

    def norm(self, x):
        return self.pairing(x, x)

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={determinant(self)})"


def from_gram(rows) -> Lattice:
    return Lattice(tuple(tuple(int(x) for x in row) for row in rows))


def sublattice(ambient: Lattice, rows) -> Lattice:
    """Sublattice of ``ambient`` spanned by the given integer basis rows."""
    b = [list(map(int, row)) for row in rows]
    g = la.mat_mul(la.mat_mul(b, [list(r) for r in ambient.gram]), la.transpose(b))
    return Lattice(tuple(tuple(row) for row in g), ambient=ambient,
                   basis=tuple(tuple(row) for row in b))


def determinant(lat: Lattice) -> int:
    """Exact Gram determinant (fraction-free elimination)."""
    return la.bareiss_determinant([list(r) for r in lat.gram])


def signature(lat: Lattice) -> tuple[int, int]:
    """(positive, negative) inertia indices, by exact rational diagonalization.

    Uses Lagrange reduction: split off squares at nonzero diagonal entries,
    and when the remaining block has an all-zero diagonal, symmetrize a
    nonzero off-diagonal pair first. An active row that is all zero spans
    the radical, so the lattice is degenerate.
    """
    a = [[Fraction(x) for x in row] for row in lat.gram]
    active = list(range(lat.rank))
    pos = neg = 0
    while active:
        p = next((i for i in active if a[i][i] != 0), None)
        if p is None:
            # all-zero diagonal; e_i -> e_i + e_j produces 2*a[i][j] != 0
            i = active[0]
            j = next((j for j in active if a[i][j] != 0), None)
            if j is None:
                raise DegenerateLatticeError("lattice has determinant 0")
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            p = i
        d = a[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(p)
        # Schur complement at the pivot keeps the restricted form congruent.
        for i in active:
            f = a[i][p] / d
            if f:
                for j in active:
                    a[i][j] -= f * a[p][j]
    return pos, neg


class DiscriminantGroup(Record):
    """The finite group L'/L with generators given as dual vectors.

    ``divisors`` is the elementary-divisor chain d1 | d2 | ... (entries > 1),
    ``generators[i]`` is a rational coordinate vector in the lattice basis
    whose class generates the cyclic factor of order divisors[i], and
    ``order`` is the group order |det L|.
    """

    __slots__ = ("divisors", "generators", "order")

    @property
    def min_generators(self) -> int:
        return len(self.divisors)


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """Compute L'/L from the Smith normal form of the Gram matrix.

    With U G V = D (Smith form), the dual lattice is spanned over Z by the
    rows of D^-1 U, so row i of U divided by the elementary divisor d_i
    generates the order-d_i cyclic factor, and |det L| is the product of
    the d_i. A zero elementary divisor means the lattice is degenerate.
    """
    left, diag, _right = la.smith_normal_form([list(row) for row in lat.gram])
    divisors = []
    generators = []
    order = 1
    for i, d in enumerate(la.diagonal_of(diag)):
        if d == 0:
            raise DegenerateLatticeError("lattice has determinant 0")
        order *= d
        if d > 1:
            divisors.append(d)
            generators.append(tuple(Fraction(c, d) for c in left[i]))
    return DiscriminantGroup(tuple(divisors), tuple(generators), order)


def dual_basis(lat: Lattice) -> list[tuple[Fraction, ...]]:
    """Rows of the inverse Gram matrix: dual vector i pairs as delta_ij."""
    try:
        inv = la.fraction_inverse([list(r) for r in lat.gram])
    except ZeroDivisionError:
        raise DegenerateLatticeError("lattice has determinant 0") from None
    return [tuple(row) for row in inv]


def is_primitive_vector(lat: Lattice, x) -> bool:
    """True iff x is not a proper integer multiple of a lattice vector."""
    coords = [int(c) for c in x]
    if not any(coords):
        raise ZeroVectorError("zero vector has no primitivity")
    return gcd(*coords) == 1


def saturation_index(ambient: Lattice, sub: Lattice) -> int:
    """Index of sub inside its saturation in the ambient lattice."""
    if sub.ambient is not ambient and sub.ambient != ambient:
        raise ValueError("sublattice does not live in the given ambient lattice")
    b = [list(row) for row in sub.basis]
    _, diag, _ = la.smith_normal_form(b)
    factors = [d for d in la.diagonal_of(diag) if d != 0]
    if len(factors) < len(b):
        raise ValueError("sublattice basis rows are dependent")
    idx = 1
    for d in factors:
        idx *= d
    return idx


def orthogonal_complement(ambient: Lattice, sub: Lattice) -> Lattice:
    """The full sublattice of ``ambient`` orthogonal to ``sub``.

    Requires sub to be embedded primitively (equal to its saturation); the
    returned basis is the canonical Hermite-form kernel basis, so repeated
    runs give identical coordinates.
    """
    if saturation_index(ambient, sub) != 1:
        raise NonPrimitiveSublatticeError(
            "sublattice is a proper finite-index subgroup of its saturation")
    b = [list(row) for row in sub.basis]
    g = [list(row) for row in ambient.gram]
    pair_map = la.mat_mul(g, la.transpose(b))  # x @ pair_map = pairings with sub
    kernel = la.left_kernel(pair_map)
    return sublattice(ambient, kernel)


def direct_sum(*lattices: Lattice) -> Lattice:
    """Block-diagonal sum; ambient/basis data is not carried over."""
    total = sum(l.rank for l in lattices)
    g = [[0] * total for _ in range(total)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return from_gram(g)


def rescale(lat: Lattice) -> Lattice:
    """The same module with the bilinear form negated."""
    return from_gram([[-x for x in row] for row in lat.gram])


def _simply_laced_gram(n: int, edges) -> Lattice:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i - 1][j - 1] = g[j - 1][i - 1] = -1
    return from_gram(g)


# Simple-root Gram matrices in Bourbaki numbering. For E8 the node order is
# fixed once and for all; every coordinate in this package refers to it.
_E8_EDGES = [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]

E8 = _simply_laced_gram(8, _E8_EDGES)
E7 = _simply_laced_gram(7, [(i, j) for i, j in _E8_EDGES if j <= 7])
E6 = _simply_laced_gram(6, [(i, j) for i, j in _E8_EDGES if j <= 6])
H = from_gram([[0, 1], [1, 0]])


def rank1(n: int) -> Lattice:
    return from_gram([[n]])


_STANDARD_PAIRS = {
    (1, 1): lambda: H,
    (1, 9): lambda: direct_sum(H, rescale(E8)),
    (1, 17): lambda: direct_sum(H, rescale(E8), rescale(E8)),
    (2, 26): lambda: direct_sum(rescale(E8), rescale(E8), rescale(E8), H, H),
    (3, 19): lambda: direct_sum(H, H, H, rescale(E8), rescale(E8)),
}


def ii(p: int, q: int) -> Lattice:
    """The even unimodular lattice II_{p,q}, for the five standard pairs."""
    try:
        return _STANDARD_PAIRS[(p, q)]()
    except KeyError:
        raise ValueError(f"II({p},{q}) is not one of the provided standard lattices "
                         f"{sorted(_STANDARD_PAIRS)}") from None


def parse_gram_text(text: str, source: str = "<string>") -> Lattice:
    """Parse the Gram-file format: rank line, then rank x rank integer rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GramFileError(f"{source}: empty Gram file")
    try:
        rank = int(lines[0].split()[0])
    except ValueError:
        raise GramFileError(f"{source}: first line must be the rank") from None
    if rank < 0:
        raise GramFileError(f"{source}: negative rank")
    if len(lines) < 1 + rank:
        raise GramFileError(f"{source}: expected {rank} matrix rows")
    rows = []
    for ln in lines[1:1 + rank]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise GramFileError(f"{source}: non-integer matrix entry") from None
        if len(row) != rank:
            raise GramFileError(f"{source}: row of length {len(row)}, expected {rank}")
        rows.append(row)
    if not la.is_symmetric(rows):
        raise GramFileError(f"{source}: Gram matrix is not symmetric")
    return from_gram(rows)


def load_gram_file(path) -> Lattice:
    with open(path, encoding="utf-8") as fh:
        return parse_gram_text(fh.read(), source=str(path))
