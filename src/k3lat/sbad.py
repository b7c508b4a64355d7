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
    ``s1``, the bordered lattice, is built on each read."""

    __slots__ = ("s", "pairings", "d_norm")

    def __init__(self, s: Lattice, pairings: tuple[int, ...], d_norm: int):
        if len(pairings) != s.rank:
            raise ValueError("need one pairing per basis vector of S")
        super().__init__(s, pairings, d_norm)

    @property
    def s1(self) -> Lattice:
        from .lattice import from_gram
        g = [list(row) + [p] for row, p in zip(self.s.gram, self.pairings)]
        g.append(list(self.pairings) + [self.d_norm])
        return from_gram(g)


def is_sbad_extension(w: ExtensionWitness) -> bool:
    """True iff the bordered lattice S1 has signature (1, rank S) and
    |det S1| <= 2 |det S|.

    A degenerate S1 (det 0) is reported via LatticeError rather
    than as False: an isotropic bordering is not a lattice extension.
    """
    from .lattice import determinant
    return _verdict(w, determinant(w.s))[1]


def _verdict(w: ExtensionWitness, det_s: int) -> tuple[int, bool]:
    from .lattice import determinant, signature
    if det_s == 0:
        raise LatticeError("S must be nondegenerate")
    s1 = w.s1
    det_s1 = determinant(s1)
    if det_s1 == 0:
        raise LatticeError("bordered lattice is degenerate")
    return det_s1, abs(det_s1) <= 2 * abs(det_s) and signature(s1) == (1, w.s.rank)


def search_sbad_extensions(s: Lattice, max_pairing: int, d_norms) -> list[ExtensionWitness]:
    """Bounded witness scan: all pairing vectors with entries in
    [-max_pairing, max_pairing] and self-norms from d_norms.

    Degenerate borderings are skipped. The unbounded existence question is
    not decided here.
    """
    from .lattice import determinant
    det_s = determinant(s)  # once per search: each verdict below takes it
    found = []
    span = range(-max_pairing, max_pairing + 1)
    for d in d_norms:
        for pairings in product(span, repeat=s.rank):
            w = ExtensionWitness(s=s, pairings=tuple(pairings), d_norm=index(d))
            if det_s and determinant(w.s1) == 0:  # a degenerate S raises below
                continue
            if _verdict(w, det_s)[1]:
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


def possible_extension_norms(two_n: int, k: int) -> int:
    """The even self-norm d with -2 <= d - k^2/two_n < 0.

    The condition puts d in the half-open window [k^2/two_n - 2, k^2/two_n)
    of length 2, which holds exactly one even integer: the least even d at
    or above its left end, 2 ceil(k^2/2two_n - 1) = -2 floor(1 - k^2/2two_n).
    """
    if two_n <= 0 or two_n % 2:
        raise ValueError("two_n must be a positive even integer")
    return -2 * ((2 * two_n - k * k) // (2 * two_n))


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
