"""Integral lattices: Gram arithmetic, duals, discriminant groups, complements.

A lattice is its integer Gram matrix alone. `blocks` splits that matrix into
orthogonal blocks, and the determinant and the signature take one Lagrange
reduction of each. A sublattice is a list of integer basis rows in ambient
coordinates: `sublattice` gives their lattice, and `orthogonal_complement`
the HNF kernel rows of their complement. All arithmetic is over Python
ints; only `dual_basis` returns Fractions.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import index, mul

from .errors import GramFileError, LatticeError
from .records import Record
from .reduction import is_symmetric, lagrange_reduction


class Lattice(Record):
    """An integral lattice given by a symmetric Gram matrix.

    ``gram`` is a tuple of integer row tuples, entries taken by `operator.index`
    (a float is a TypeError, not truncated). It is the record's one field:
    every invariant is a function of it, computed anew on each call.
    """

    __slots__ = ("gram",)

    def __init__(self, gram):
        g = tuple(tuple(map(index, row)) for row in gram)
        if not is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        super().__init__(g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={determinant(self)})"


def from_gram(rows) -> Lattice:
    return Lattice(rows)


def _basis_rows(ambient: Lattice, rows) -> list[list[int]]:
    b = [list(map(index, row)) for row in rows]
    if any(len(row) != ambient.rank for row in b):
        raise ValueError(f"each row must have {ambient.rank} entries, the ambient rank")
    return b


def sublattice(ambient: Lattice, rows) -> Lattice:
    """The lattice spanned by integer basis rows of ``ambient``: Gram B G B^T."""
    from . import intlinalg as la
    b = _basis_rows(ambient, rows)
    return Lattice([[sum(map(mul, u, v)) for v in b] for u in la.mat_mul(b, ambient.gram)])


def blocks(gram) -> list[list[int]]:
    """The sorted index sets of the components of the nonzero off-diagonal
    entries of a symmetric Gram matrix: its orthogonal blocks, by least index."""
    left, found = set(range(len(gram))), []
    while left:
        block = [left.pop()]
        for i in block:  # the block grows as the loop reads it
            near = {j for j in left if gram[i][j]}
            left -= near
            block += near
        found.append(sorted(block))
    return sorted(found)


def _block_minors(lat: Lattice):
    """The minors of the Lagrange reduction of each orthogonal block in turn;
    LatticeError if one stops short, as that block has determinant 0."""
    for block in blocks(lat.gram):
        minors = lagrange_reduction([[lat.gram[i][j] for j in block] for i in block])[0]
        if len(minors) <= len(block):
            raise LatticeError("lattice has determinant 0")
        yield minors


def determinant(lat: Lattice) -> int:
    """Exact Gram determinant: the product of the last minors of the blocks'
    Lagrange reductions, or 0 if one stops short. Each step is a congruence
    by a matrix of determinant +-1 (a pivot choice, or e_i -> e_i + e_j)."""
    try:
        return reduce(mul, (minors[-1] for minors in _block_minors(lat)), 1)
    except LatticeError:
        return 0


def signature(lat: Lattice) -> tuple[int, int]:
    """(positive, negative) inertia indices, summed over the orthogonal blocks:
    a block's negative index is the number of sign changes in its minors
    (Sylvester's law of inertia). LatticeError if the determinant is 0."""
    neg = sum((x < 0) != (y < 0) for m in _block_minors(lat) for x, y in zip(m, m[1:]))
    return lat.rank - neg, neg


class DiscriminantGroup(Record):
    """The finite group L'/L, with its generators given by integer rows.

    ``divisors`` is the elementary-divisor chain d1 | d2 | ... (entries > 1),
    with product |det L|, and ``generators[i]`` an integer row L_i whose dual
    vector L_i / d_i (lattice basis) generates the cyclic factor of order d_i.
    """

    __slots__ = ("divisors", "generators")

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
    from . import intlinalg as la
    left, diag = la.smith_normal_form([list(row) for row in lat.gram])
    divisors = []
    generators = []
    for i, d in enumerate(la.diagonal_of(diag)):
        if d == 0:
            raise LatticeError("lattice has determinant 0")
        if d > 1:
            divisors.append(d)
            generators.append(tuple(left[i]))
    return DiscriminantGroup(tuple(divisors), tuple(generators))


def dual_basis(lat: Lattice) -> list[tuple[Fraction, ...]]:
    """Rows of the inverse Gram matrix: dual vector i pairs as delta_ij."""
    from . import intlinalg as la
    try:
        inv = la.fraction_inverse([list(r) for r in lat.gram])
    except ZeroDivisionError:
        raise LatticeError("lattice has determinant 0") from None
    return [tuple(row) for row in inv]


def is_primitive_vector(lat: Lattice, x) -> bool:
    """True iff x is not a proper integer multiple of a lattice vector;
    ValueError unless x has lat.rank coordinates."""
    coords = _basis_rows(lat, [x])[0]
    if not any(coords):
        raise LatticeError("zero vector has no primitivity")
    return gcd(*coords) == 1


def saturation_index(rows) -> int:
    """Index of the span of integer rows inside its saturation."""
    from . import intlinalg as la
    b = [list(map(index, row)) for row in rows]
    _, diag = la.smith_normal_form(b)
    factors = [d for d in la.diagonal_of(diag) if d != 0]
    if len(factors) < len(b):
        raise ValueError("sublattice basis rows are dependent")
    idx = 1
    for d in factors:
        idx *= d
    return idx


def orthogonal_complement(ambient: Lattice, rows) -> list[list[int]]:
    """The canonical Hermite-form kernel basis of the vectors of ``ambient``
    orthogonal to the rows, which must span a primitive sublattice (equal to
    its saturation); repeated runs give identical coordinates."""
    from . import intlinalg as la
    b = _basis_rows(ambient, rows)
    if saturation_index(b) != 1:
        raise LatticeError(
            "sublattice is a proper finite-index subgroup of its saturation")
    return la.left_kernel(la.mat_mul(ambient.gram, la.transpose(b)))


def direct_sum(*lattices: Lattice) -> Lattice:
    """Block-diagonal sum."""
    total, off, g = sum(l.rank for l in lattices), 0, []
    for l in lattices:
        g += [[0] * off + list(row) + [0] * (total - off - l.rank) for row in l.gram]
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
    lattice = gram_head(lines, source)
    if len(lines) > 1 + lattice.rank:
        raise GramFileError(
            f"{source}: expected {lattice.rank} matrix rows, found {len(lines) - 1}")
    return lattice


def gram_head(lines: list[str], source: str) -> Lattice:
    """The lattice of the rank line and the rank rows that open `lines`, the
    nonblank lines of a Gram or witness file; the lines after them are not read."""
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
