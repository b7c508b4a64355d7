"""Integral lattices: Gram arithmetic, duals, discriminant groups, complements.

A lattice is a free Z-module with an integer Gram matrix. Sublattices keep a
reference to their ambient lattice plus integer basis rows in ambient
coordinates, so orthogonal complements can be taken exactly. All arithmetic
is over Python ints; only `dual_basis` returns Fractions.
"""

from __future__ import annotations

from math import gcd

from . import intlinalg as la
from .errors import (
    DegenerateLatticeError,
    GramFileError,
    NonPrimitiveSublatticeError,
    ZeroVectorError,
)
from .records import Record
from .reduction import is_symmetric, lagrange_reduction


class Lattice(Record):
    """An integral lattice given by a symmetric Gram matrix.

    ``gram`` is a tuple of integer row tuples. ``ambient`` and ``basis`` are
    set for sublattices: ``basis`` rows are integer coordinate vectors in
    the ambient basis and the Gram matrix equals basis . ambient_gram .
    basis^T (checked on construction). ``minors``, which the signature and
    the determinant read, is computed on first read and kept.
    """

    __slots__ = ("gram", "ambient", "basis", "_minors")

    def __init__(self, gram, ambient: Lattice | None = None, basis=None):
        g = [list(row) for row in gram]
        if not is_symmetric(g):
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
    def minors(self) -> tuple[int, ...]:
        """The minors of the Lagrange reduction of the Gram matrix: rank + 1
        of them, or fewer if the determinant is 0."""
        try:
            return self._minors
        except AttributeError:
            minors = tuple(lagrange_reduction(self.gram)[0])
            object.__setattr__(self, "_minors", minors)
            return minors

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
    """Exact Gram determinant: the last minor of the Lagrange reduction, or 0
    if the reduction stops short. Each step is a congruence by a matrix of
    determinant +-1 (a choice of pivot, or e_i -> e_i + e_j), so that minor
    is the determinant."""
    minors = lat.minors
    return minors[-1] if len(minors) > lat.rank else 0


def signature(lat: Lattice) -> tuple[int, int]:
    """(positive, negative) inertia indices, from the Lagrange reduction.

    The negative index is the number of sign changes in its minors
    (Sylvester's law of inertia); an early stop means det 0.
    """
    minors = lat.minors
    if len(minors) <= lat.rank:
        raise DegenerateLatticeError("lattice has determinant 0")
    neg = sum((x < 0) != (y < 0) for x, y in zip(minors, minors[1:]))
    return lat.rank - neg, neg


class DiscriminantGroup(Record):
    """The finite group L'/L, with its generators given by integer rows.

    ``divisors`` is the elementary-divisor chain d1 | d2 | ... (entries > 1),
    ``generators[i]`` an integer row L_i whose dual vector L_i / d_i (lattice
    basis) generates the cyclic factor of order d_i, and ``order`` is |det L|.
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
    left, diag = la.smith_normal_form([list(row) for row in lat.gram])
    divisors = []
    generators = []
    order = 1
    for i, d in enumerate(la.diagonal_of(diag)):
        if d == 0:
            raise DegenerateLatticeError("lattice has determinant 0")
        order *= d
        if d > 1:
            divisors.append(d)
            generators.append(tuple(left[i]))
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
    _, diag = la.smith_normal_form(b)
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


def gram_integers(line: str, source: str, what: str) -> list[int]:
    """The entries of one line of a Gram or witness file. Each must be ASCII
    digits with an optional sign, within Python's int-to-str digit limit;
    anything else, such as a byte-order mark or another script's digits that
    int() would read, is a GramFileError naming the line."""
    out = []
    for tok in line.split():
        digits = tok[1:] if tok[0] in "+-" else tok
        if not (digits.isascii() and digits.isdigit()):
            raise GramFileError(f"{source}: {what}: {tok[:20]!r} is not an integer")
        try:
            out.append(int(tok))
        except ValueError:
            import sys

            raise GramFileError(f"{source}: {what}: an entry has more than "
                                f"{sys.get_int_max_str_digits()} digits") from None
    return out


def parse_gram_text(text: str, source: str = "<string>") -> Lattice:
    """Parse the Gram-file format: rank line, then rank x rank integer rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GramFileError(f"{source}: empty Gram file")
    first = gram_integers(lines[0], source, "rank line")
    if len(first) != 1:
        raise GramFileError(f"{source}: first line must be the rank alone")
    rank = first[0]
    if rank < 0:
        raise GramFileError(f"{source}: negative rank")
    if len(lines) < 1 + rank:
        raise GramFileError(f"{source}: expected {rank} matrix rows")
    rows = []
    for i, ln in enumerate(lines[1:1 + rank], 1):
        row = gram_integers(ln, source, f"matrix row {i}")
        if len(row) != rank:
            raise GramFileError(f"{source}: row of length {len(row)}, expected {rank}")
        rows.append(row)
    if not is_symmetric(rows):
        raise GramFileError(f"{source}: Gram matrix is not symmetric")
    return from_gram(rows)


def read_gram_text(path) -> str:
    """The text of a Gram or witness file; GramFileError unless it is UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise GramFileError(f"{path}: not a UTF-8 text file") from None


def load_gram_file(path) -> Lattice:
    return parse_gram_text(read_gram_text(path), source=str(path))
