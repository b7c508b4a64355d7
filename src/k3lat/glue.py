"""Dual-coset counting, embedding feasibility, divisor multiplicities.

The central object is the table row of an orbit of a norm-2n vector v in
E8: for each pairing label k = (x, v) between 0 and n, the counts of
vectors a in the dual of U = v-perp whose class corresponds to k and whose
squared length (internal positive convention) lies in [0, 2). E8 is
unimodular, so U' is the projection pi(E8) onto v-perp. With v = m v0, v0
primitive, p = v0 . G and 2n0 = p . v0, Q(x) = 2n0 x.G.x - (p.x)^2 on Z^8 is
2n0 times the norm of pi(x), with kernel Z v0, and pi(x) lies in the class
p.x mod 2n0 of U'/U = Z/2n0. The row is one labelled enumeration of Q on a
basis of Z^8/Z v0, which `short_vectors` LLL-reduces. The cross-check
`dual_coset_counts` takes one coset a0 + U per column, on the HNF basis of
U bordered by a0: the slice t = 1 of the integral lattice U + Z a0.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import LatticeError
from .records import Record
from .reduction import xgcd


class EmbeddingReport(Record):
    """Outcome of the primitive-embedding sufficiency test into II_{p,q}."""

    __slots__ = ("embeddable", "rank", "min_generators", "signature", "target_dim")


# Rank of II_{2,26}, the lattice that `nikulin_embeddable` embeds into.
TARGET_DIM = 28


def nikulin_embeddable(t: Lattice) -> EmbeddingReport:
    """Sufficient condition for a primitive embedding into II_{2,26}.

    True iff the signature is (2, q) and the minimum number of generators
    of T'/T plus rank(T) is less than TARGET_DIM; that bounds q by
    TARGET_DIM - 3, since rank(T) = 2 + q for a nondegenerate T. Raises
    LatticeError unless the positive index is 2.
    """
    from .lattice import discriminant_group, signature
    sig = signature(t)
    if sig[0] != 2:
        raise LatticeError(f"expected signature (2, q), got {sig}")
    ell = discriminant_group(t).min_generators
    return EmbeddingReport(t.rank + ell < TARGET_DIM, t.rank, ell, sig, TARGET_DIM)


class CosetCountTable(Record):
    """Counts of short dual-coset vectors for one orbit row.

    ``counts[k][2n nu]`` is the number of vectors a in the dual of U with
    label k and internal norm nu (0 <= nu < 2), keyed by the integer 2n nu;
    ``column_totals[k]`` sums a column. Labels run over 0..n; other labels
    follow from the symmetry k -> -k -> 2n - k. Columns may share one cell
    dict, so treat them as read-only. ``root_count`` is that of U.
    """

    __slots__ = ("two_n", "orbit", "root_count", "counts", "column_totals")


def _pairing_solution(v) -> tuple[int, list[int]]:
    """(g, w) with (v, w) = g, the content of v (E8 is unimodular)."""
    from .e8 import _pairings
    g, w = 0, [0] * 8
    for i, p in enumerate(_pairings(v)):
        g, a, b = xgcd(g, p)
        w = [a * c for c in w]
        w[i] = b
    return g, w


def _completion(v0) -> list[list[int]]:
    """Rows b_1..b_7 making v0, b_1, ..., b_7 a basis of Z^8, for v0 primitive
    with v0[0] != 0 (every coordinate of a dominant vector is positive). An
    xgcd chain: with g f = v0 on coordinates 0..i-1, xgcd(g, v0[i]) = (h, x, y)
    takes f, e_i to f' = (g f + v0[i] e_i)/h and b_i = x e_i - y f, with
    determinant 1. Listed last first, which saves the LLL of `short_vectors` a
    third of its steps."""
    f, g, rows = [1] + [0] * 7, v0[0], []
    for i in range(1, 8):
        h, x, y = xgcd(g, v0[i])
        rows.append([-y * c for c in f[:i]] + [x] + f[i + 1:])
        f, g = [g // h * c for c in f[:i]] + [v0[i] // h] + f[i + 1:], h
    return rows[::-1]


def coset_count_row(orbit: OrbitClass) -> CosetCountTable:
    """Build the table row of an orbit by one labelled enumeration of pi(E8).

    With v = m v0, rows b_i completing v0 to a basis of Z^8 project to a
    basis of U' = pi(E8) with Gram Q_ij = 2n0 b_i.G.b_j - c_i c_j and label
    c_i = p . b_i mod 2n0, where 2n0 = 2n/m^2. The norms below 2 are Q at
    most 4n0 - 1, and Q(x) = q puts pi(x) in the cell 2n nu = m^2 q. Column
    k = m t is the histogram of label t, and is empty where m does not divide
    k."""
    from .e8 import _pairings
    from .shortvec import short_vectors
    two_n, v = orbit.two_n, orbit.representative
    m = gcd(*v)
    v0 = [x // m for x in v]
    p, two_n0, basis = _pairings(v0), two_n // (m * m), _completion(v0)
    c = [sum(map(mul, p, b)) for b in basis]
    gram = [[two_n0 * sum(map(mul, bg, bj)) - ci * cj for bj, cj in zip(basis, c)]
            for bg, ci in zip(map(_pairings, basis), c)]
    hist = short_vectors(gram, 2 * two_n0 - 1, label=c, modulus=two_n0)
    by_label: dict[int, dict[int, int]] = {}
    for (t, norm), count in hist.counts.items():
        by_label.setdefault(t, {})[m * m * norm] = count
    counts = {k: by_label.get(k // m % two_n0, {}) if k % m == 0 else {}
              for k in range(two_n // 2 + 1)}
    return CosetCountTable(two_n=two_n, orbit=orbit, root_count=orbit.root_count_u,
                           counts=counts,
                           column_totals={k: sum(c.values()) for k, c in counts.items()})


def dual_coset_counts(orbit: OrbitClass, k: int) -> dict[Fraction, int]:
    """Independent rank-7 oracle for one column of a table row.

    Solves (x0, v) = k in E8 and enumerates a0 + U below internal norm 2,
    a0 the projection of x0, as the slice t = 1 of U + Z a0 under the
    integral form d (norm(u + t a0) + t^2), d = 2n (Kannan's embedding,
    Math. Oper. Res. 12, 1987): below 3d, |t| <= 1, and t mod 3 is the
    label. Returns the empty histogram when no E8 vector pairs to k
    (non-primitive v, odd k). Its cells are keyed by nu as a Fraction, the
    keys that `perfbench/reference.py` compares with.
    """
    from fractions import Fraction

    from .e8 import complement_of
    from .lattice import E8, sublattice
    from .shortvec import short_vectors
    g, coeff = _pairing_solution(orbit.representative)
    if k % g:
        return {}
    rows, d = complement_of(orbit.representative), orbit.two_n
    rows.append([(k // g) * c for c in coeff])  # x0
    # (u, a0) = (u, x0) for u orthogonal to v, and d norm(a0) = d norm(x0) - k^2
    gram = [[d * x for x in row] for row in sublattice(E8, rows).gram]
    gram[-1][-1] += d - k * k
    hist = short_vectors(gram, 3 * d - 1, label=[0] * (len(rows) - 1) + [1], modulus=3)
    return {Fraction(norm, d) - 1: c for (t, norm), c in hist.counts.items() if t == 1}


def restricted_weight(u: Lattice) -> int:
    """Weight of the restricted form: 12 plus half the root count of U."""
    from .shortvec import root_count
    if u.rank > 26:
        raise ValueError("complement lattice cannot have rank above 26")
    return 12 + root_count(u) // 2  # raises LatticeError when not definite


class DivisorCell(Record):
    """One (k, norm) cell in the divisor range: ``norm`` is 2n times its norm
    in (-2, 0), negative convention, so -norm is its `CosetCountTable` key."""

    __slots__ = ("k", "norm", "count", "vanishing")


def divisor_classes(row: CosetCountTable) -> list[DivisorCell]:
    """All cells with norm strictly between -2 and 0 (negative convention).

    For each label k there is at most one admissible cell, since dual
    norms are even integers minus k^2/2n: in units of 1/2n, the cell
    2n nu = 2n lift - k^2 for the smallest even integer lift > k^2/2n.
    Zero-count cells are reported with vanishing=False.
    """
    two_n, out = row.two_n, []
    for k in range(two_n // 2 + 1):
        shift = k * k  # 2n times k^2/2n
        if shift % (2 * two_n) == 0:
            continue  # k^2/2n is an even integer: no cell in the open range
        key = (shift // (2 * two_n) + 1) * 2 * two_n - shift
        count = row.counts.get(k, {}).get(key, 0)
        out.append(DivisorCell(k=k, norm=-key, count=count, vanishing=count > 0))
    return out


class ScaleContribution(Record):
    """One scale c of a dual line: ``norm`` is 2n times that of c * t0,
    negative convention, and ``count`` the table count at (``label``, 2 + norm)."""

    __slots__ = ("scale", "norm", "label", "count")


class DivisorReport(Record):
    """Total vanishing order along the hyperplane of a primitive dual line.

    The line is given by its class data: label k0 and nu0, 2n times the
    negative-convention norm of the primitive dual vector t0. Each integer
    scale c with c^2 nu0 >= -4n contributes the table count at (c*k0
    reduced, 4n + c^2 nu0); the scale whose vector lands on an actual norm
    -2 lattice vector contributes via the label-0 zero-norm cell.
    """

    __slots__ = ("k0", "nu0", "contributions", "total_multiplicity")


def hyperplane_multiplicity(row: CosetCountTable, k0: int, nu0: int) -> DivisorReport:
    """The `DivisorReport` of the dual line (k0, nu0) of a row, nu0 in units of 1/2n."""
    four_n = 2 * row.two_n
    if nu0 >= 0:
        raise LatticeError("the dual direction must have negative norm")
    if nu0 < -four_n:
        raise LatticeError(
            "no divisor arises from a dual vector of norm below -2")
    contribs = []
    c = 1
    while c * c * nu0 >= -four_n:
        scaled = c * c * nu0
        label = min(c * k0 % row.two_n, -c * k0 % row.two_n)  # fold k -> 2n - k
        count = row.counts.get(label, {}).get(four_n + scaled, 0)
        contribs.append(ScaleContribution(scale=c, norm=scaled, label=label,
                                          count=count))
        c += 1
    return DivisorReport(k0=k0, nu0=nu0, contributions=tuple(contribs),
                         total_multiplicity=sum(x.count for x in contribs))


def nikulin_minus2_property(s: Lattice) -> bool:
    """Even Lorentzian lattices whose dual short vectors all lie in the lattice.

    True for the even unimodular Lorentzian lattices inside II_{3,19}
    (signatures (1,1), (1,9), (1,17)) and for even lattices of determinant
    +-2 with rank congruent to 1 mod 8 (rank small enough to fit).
    """
    from .lattice import determinant, signature
    sig = signature(s)
    if sig[0] != 1:
        raise LatticeError(f"expected Lorentzian signature (1, m), got {sig}")
    if not s.even:
        return False
    d = abs(determinant(s))
    if d == 1:
        return sig[1] in (1, 9, 17)
    if d == 2:
        return s.rank % 8 == 1 and s.rank <= 20
    return False
