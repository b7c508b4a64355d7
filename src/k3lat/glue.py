"""Dual-coset counting, embedding feasibility, divisor multiplicities.

The central object is the table row of an orbit of a norm-2n vector v in
E8: for each pairing label k = (x, v) between 0 and n, the counts of
vectors a in the dual of U = v-perp whose class corresponds to k and whose
squared length (internal positive convention) lies in [0, 2). Every such a
is the projection a = x - ((x,v)/2n) v of a unique x in E8 with (x, v) = k.
The row is one enumeration of U', each vector labelled by its class in
U'/U; `dual_coset_counts` enumerates one coset of U per column and serves
as the independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from . import intlinalg as la
from .e8 import OrbitClass
from .errors import NormOutOfRangeError, WrongSignatureError
from .lattice import E8, Lattice, determinant, discriminant_group, signature
from .records import Record
from .shortvec import root_count, short_vectors


class EmbeddingReport(Record):
    """Outcome of the primitive-embedding sufficiency test into II_{p,q}."""

    __slots__ = ("embeddable", "rank", "min_generators", "signature", "target_dim")

    def __bool__(self) -> bool:
        return self.embeddable


# Rank of II_{2,26}, the lattice that `nikulin_embeddable` embeds into.
TARGET_DIM = 28


def nikulin_embeddable(t: Lattice) -> EmbeddingReport:
    """Sufficient condition for a primitive embedding into II_{2,26}.

    True iff the signature is (2, q) with q <= TARGET_DIM - 2 and the
    minimum number of generators of T'/T plus rank(T) is less than
    TARGET_DIM. Raises WrongSignatureError unless the positive index is 2.
    """
    sig = signature(t)
    if sig[0] != 2:
        raise WrongSignatureError(f"expected signature (2, q), got {sig}")
    ell = discriminant_group(t).min_generators
    ok = sig[1] <= TARGET_DIM - 2 and t.rank + ell < TARGET_DIM
    return EmbeddingReport(ok, t.rank, ell, sig, TARGET_DIM)


class CosetCountTable(Record):
    """Counts of short dual-coset vectors for one orbit row.

    ``counts[k][nu]`` is the number of vectors a in the dual of U with
    label k and internal norm nu (0 <= nu < 2); ``column_totals[k]`` sums a
    column. Labels run over 0..n; other labels follow from the symmetry
    k -> -k -> 2n - k. ``root_count`` is that of U.
    """

    __slots__ = ("two_n", "orbit", "root_count", "counts", "column_totals")


def _pairing_solution(v) -> tuple[int, list[int]]:
    """(g, w) with (v, w) = g, the content of v (E8 is unimodular)."""
    g, w = 0, [0] * 8
    for i, p in enumerate(la.vec_mat(list(v), E8.gram)):
        g, a, b = la.xgcd(g, p)
        w = [a * c for c in w]
        w[i] = b
    return g, w


def coset_count_row(orbit: OrbitClass) -> CosetCountTable:
    """Build the table row of an orbit by one labelled enumeration of U'.

    With v = m v0, v0 primitive, det U = 2n0 = 2n/m^2. In the dual basis u_i*
    U' has the integer Gram 2n0 G_U^-1 = adj G_U (norm below 2 is below
    2 det U), and the class of y in U'/U = Z/2n0 is sum c_i y_i mod 2n0 with
    c_i = -2n0 (u_i*, w) for any w in E8 with (v0, w) = 1. Column k = m t is
    the histogram of label t mod 2n0; columns with m not dividing k are empty.
    """
    two_n, u = orbit.two_n, orbit.complement
    m, w = _pairing_solution(orbit.representative)
    det_u, adj = la.bareiss_adjugate(u.gram)
    dual_gram = tuple(tuple(row) for row in adj)
    form = tuple(-c % det_u for c in
                 la.vec_mat([E8.pairing(b, w) for b in u.basis], dual_gram))
    hist = short_vectors(dual_gram, 2 * det_u, exclusive=True, label=form, modulus=det_u)
    by_label: dict[int, dict[Fraction, int]] = {}
    for (t, norm), count in hist.counts.items():
        by_label.setdefault(t, {})[norm / det_u] = count
    counts = {k: dict(by_label.get(k // m % det_u, {})) if k % m == 0 else {}
              for k in range(two_n // 2 + 1)}
    return CosetCountTable(two_n=two_n, orbit=orbit, root_count=orbit.root_count_u,
                           counts=counts,
                           column_totals={k: sum(c.values()) for k, c in counts.items()})


def dual_coset_counts(orbit: OrbitClass, k: int) -> dict[Fraction, int]:
    """Independent rank-7 oracle for one column of a table row.

    Solves (x0, v) = k in E8, projects x0 into the span of U, and
    enumerates the coset a0 + U below internal norm 2. Returns the empty
    histogram when no E8 vector pairs to k (non-primitive v, odd k).
    """
    v = orbit.representative
    g, coeff = _pairing_solution(v)
    if k % g:
        return {}
    a0 = [(k // g) * xc - Fraction(k, orbit.two_n) * vc for xc, vc in zip(coeff, v)]
    u = orbit.complement
    rhs = [E8.pairing(a0, b) for b in u.basis]
    offset = la.vec_mat(rhs, la.fraction_inverse(u.gram))
    return dict(short_vectors(u.gram, 2, offset, exclusive=True).counts)


def restricted_weight(u: Lattice) -> int:
    """Weight of the restricted form: 12 plus half the root count of U."""
    if u.rank > 26:
        raise ValueError("complement lattice cannot have rank above 26")
    roots = root_count(u)  # raises IndefiniteLatticeError when not definite
    if roots % 2:
        raise RuntimeError(f"odd root count {roots}: roots come in pairs +-r")
    return 12 + roots // 2


class DivisorCell(Record):
    """One (k, norm) cell in the divisor range, negative sign convention:
    ``norm`` is a Fraction in (-2, 0)."""

    __slots__ = ("k", "norm", "count", "vanishing")


def divisor_classes(row: CosetCountTable) -> list[DivisorCell]:
    """All cells with norm strictly between -2 and 0 (negative convention).

    For each label k there is at most one admissible cell, since dual
    norms are even integers minus k^2/2n. Zero-count cells are reported
    with vanishing=False.
    """
    out = []
    for k in range(row.two_n // 2 + 1):
        shift = Fraction(k * k, row.two_n)
        lift = 2 * (shift // 2) + 2  # smallest even integer > shift, if any
        nu = lift - shift
        if nu >= 2:
            continue  # shift is an even integer: no cell in the open range
        count = row.counts.get(k, {}).get(nu, 0)
        out.append(DivisorCell(k=k, norm=-nu, count=count, vanishing=count > 0))
    return out


class ScaleContribution(Record):
    """One scale c of a dual line: ``norm`` is that of c * t0, negative
    convention, and ``count`` the table count at (``label``, 2 + norm)."""

    __slots__ = ("scale", "norm", "label", "count")


class DivisorReport(Record):
    """Total vanishing order along the hyperplane of a primitive dual line.

    The line is given by its class data: label k0 and negative-convention
    norm nu0 of the primitive dual vector t0. Each integer scale c with
    c^2 nu0 >= -2 contributes the table count at (c*k0 reduced, 2 + c^2 nu0);
    the scale whose vector lands on an actual norm -2 lattice vector
    contributes via the label-0 zero-norm cell.
    """

    __slots__ = ("k0", "nu0", "contributions", "total_multiplicity")


def hyperplane_multiplicity(row: CosetCountTable, k0: int, nu0) -> DivisorReport:
    nu0 = Fraction(nu0)
    if nu0 >= 0:
        raise NormOutOfRangeError("the dual direction must have negative norm")
    if nu0 < -2:
        raise NormOutOfRangeError(
            "no divisor arises from a dual vector of norm below -2")
    contribs = []
    c = 1
    while c * c * nu0 >= -2:
        scaled = c * c * nu0
        label = min(c * k0 % row.two_n, -c * k0 % row.two_n)  # fold k -> 2n - k
        count = row.counts.get(label, {}).get(2 + scaled, 0)
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
    sig = signature(s)
    if sig[0] != 1:
        raise WrongSignatureError(f"expected Lorentzian signature (1, m), got {sig}")
    if not s.even:
        return False
    d = abs(determinant(s))
    if d == 1:
        return sig[1] in (1, 9, 17)
    if d == 2:
        return s.rank % 8 == 1 and s.rank <= 20
    return False
