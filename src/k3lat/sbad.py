"""Rank-one extension tests for Picard lattices of polarized K3 surfaces.

A witness extension borders the Gram matrix of a Lorentzian lattice S by
one extra class D (its pairings with the S-basis and its self-intersection)
and asks whether the extension keeps signature (1, m+1) with determinant at
most twice that of S. The polarized variants work with the projected norm
d - k^2/2n alone, as the integer 2n d - k^2.
"""

from __future__ import annotations

from itertools import product
from operator import index

from .errors import GramFileError, LatticeError
from .records import Record


class ExtensionWitness(Record):
    """S plus one bordering class: pairings with the S-basis and a self-norm.
    ``s1``, the bordered lattice, is built with the witness."""

    __slots__ = ("s", "pairings", "d_norm", "_s1")

    def __init__(self, s: Lattice, pairings: tuple[int, ...], d_norm: int):
        if len(pairings) != s.rank:
            raise ValueError("need one pairing per basis vector of S")
        super().__init__(s, pairings, d_norm)
        from .lattice import from_gram
        g = [list(row) + [p] for row, p in zip(s.gram, pairings)]
        g.append(list(pairings) + [d_norm])
        object.__setattr__(self, "_s1", from_gram(g))

    @property
    def s1(self) -> Lattice:
        return self._s1

    @property
    def det_s(self) -> int:
        from .lattice import determinant
        return determinant(self.s)

    @property
    def det_s1(self) -> int:
        from .lattice import determinant
        return determinant(self.s1)


def is_sbad_extension(w: ExtensionWitness) -> bool:
    """True iff the bordered lattice S1 has signature (1, rank S) and
    |det S1| <= 2 |det S|.

    A degenerate S1 (det 0) is reported via LatticeError rather
    than as False: an isotropic bordering is not a lattice extension.
    """
    from .lattice import signature
    det_s = w.det_s
    if det_s == 0:
        raise LatticeError("S must be nondegenerate")
    det_s1 = w.det_s1
    if det_s1 == 0:
        raise LatticeError("bordered lattice is degenerate")
    if abs(det_s1) > 2 * abs(det_s):
        return False
    return signature(w.s1) == (1, w.s.rank)


def search_sbad_extensions(s: Lattice, max_pairing: int, d_norms) -> list[ExtensionWitness]:
    """Bounded witness scan: all pairing vectors with entries in
    [-max_pairing, max_pairing] and self-norms from d_norms.

    Degenerate borderings are skipped. The unbounded existence question is
    not decided here.
    """
    found = []
    span = range(-max_pairing, max_pairing + 1)
    for d in d_norms:
        for pairings in product(span, repeat=s.rank):
            w = ExtensionWitness(s=s, pairings=tuple(pairings), d_norm=index(d))
            if w.det_s1 == 0 and w.det_s != 0:  # a degenerate S raises below
                continue
            if is_sbad_extension(w):
                found.append(w)
    return found


def projected_norm(n: int, d_norm: int, k: int) -> int:
    """2n times d_norm - k^2/2n, the norm of a degree-k class of self-norm
    d_norm projected orthogonally to a degree-2n polarization: an integer."""
    return 2 * n * d_norm - k * k


def polarized_bad(n: int, d_norm: int, k: int) -> bool:
    """Degree-k class test for a degree-2n polarization:
    -2 <= d_norm - k^2/2n < 0, compared exactly in units of 1/2n."""
    if n <= 0:
        raise ValueError("polarization degree must be positive")
    return -4 * n <= projected_norm(n, d_norm, k) < 0


def normalize_degree(n: int, k: int) -> int:
    """Reduce a degree k to the fundamental range [0, n].

    k is first reduced mod 2n into (-n, n], then the sign is dropped.
    Adding multiples of the polarization to the class shifts k by 2n and
    d_norm by 2*k*m + 2n*m^2, leaving d_norm - k^2/2n unchanged, so the
    polarized test only depends on this normalized value.
    """
    if n <= 0:
        raise ValueError("polarization degree must be positive")
    r = k % (2 * n)
    if r > n:
        r -= 2 * n
    return abs(r)


def possible_extension_norms(two_n: int, k: int) -> list[int]:
    """Even self-norms d with -2 <= d - k^2/two_n < 0.

    A half-open window of length 2 contains exactly one even integer, so
    the result is always a singleton list.
    """
    if two_n <= 0 or two_n % 2:
        raise ValueError("two_n must be a positive even integer")
    d = -2 * ((2 * two_n - k * k) // (2 * two_n))  # smallest even d >= k^2/two_n - 2
    if not -2 * two_n <= projected_norm(two_n // 2, d, k) < 0:
        raise RuntimeError(f"even norm {d} outside the window [-2, 0) of d - {k}^2/{two_n}")
    return [d]


def read_witness_file(path) -> ExtensionWitness:
    """Witness file: Gram-file format for S plus one bordering row of
    rank+1 integers (pairings with the basis, then the self-norm)."""
    from .lattice import gram_head, gram_integers, read_gram_text
    lines = [ln for ln in read_gram_text(path).splitlines() if ln.strip()]
    s = gram_head(lines[:-1], str(path))
    if len(lines) != s.rank + 2:
        raise GramFileError(
            f"{path}: expected rank line, {s.rank} Gram rows and one bordering row")
    border = gram_integers(lines[-1], str(path), "bordering row")
    if len(border) != s.rank + 1:
        raise GramFileError(f"{path}: bordering row must have {s.rank + 1} entries")
    return ExtensionWitness(s=s, pairings=tuple(border[:-1]), d_norm=border[-1])
